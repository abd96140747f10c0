(** Run sizing: the one place that turns the cost model's per-stage
    numbers into the inputs a run takes.  Pure; it depends on no other
    part of the runtime.

    The inputs are indexed by pipeline stage: [item_bytes].(s) is the
    bytes of one item {e leaving} stage [s], [service_s].(s) one copy's
    seconds of work per item at stage [s].  From them a plan fixes:

    - each stage's outgoing batch cap, [clamp 1 batch (256 KiB /
      item_bytes.(s))], so one flush buffers about 256 KiB at most;
    - the per-queue byte budgets: the run total split over the consumer
      queues of stages [1 .. m-1] in proportion to the bytes of the
      items flowing into them, so every queue spills at about the same
      item depth (entry 0 is 0, every consumer entry at least 1);
    - the proc backend's credit window, [clamp 1 16 (ceil (30 us /
      service) + 1)] for the fastest non-sink stage (the sink runs in
      the parent); a non-positive service time takes the cap;
    - the largest wire frame: the fattest per-stage batch of items,
      each with 24 bytes of framing, plus 64 bytes of envelope; it
      sizes the shared-memory ring slots ({!Shm.plan_slot_bytes}). *)

type t = {
  widths : int array;  (** copies per stage *)
  stage_batch : int array option;  (** batch caps; [None] when off *)
  mem_budget : int option;  (** the run's total in-memory queue bytes *)
  queue_budgets : int array option;  (** [mem_budget] split per stage *)
  inflight : int;  (** the credit window *)
  frame_bytes : int;  (** the largest wire frame *)
}

val make :
  batch:int ->
  ?mem_budget:int ->
  ?inflight:int ->
  item_bytes:float array ->
  service_s:float array ->
  int array ->
  t
(** [make ~batch ?mem_budget ?inflight ~item_bytes ~service_s widths]:
    [batch <= 1] turns batching off; an explicit [inflight] wins over
    the planned window ({!clamp_inflight}).  A negative [mem_budget]
    gets no split, so the run rejects it like any invalid option.
    @raise Invalid_argument unless [item_bytes] and [service_s] have one
    entry per stage. *)

val queue_budgets :
  total:int -> item_bytes:float array -> widths:int array -> int array
(** The budget split of {!make}.  With equal item sizes it is
    [total / consumers] per consumer queue, the split of a run given
    only a total.  @raise Invalid_argument when [total < 0]. *)

val max_inflight : int
(** The largest credit window, 16. *)

val clamp_inflight : int option -> int
(** A requested window clamped to [1, {!max_inflight}]; [None], a run
    sized without a plan, gets the default 4. *)
