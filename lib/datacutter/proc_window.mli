(** The credit window of a remote filter copy, as a state machine with
    no I/O.

    A remote copy keeps up to [depth] data frames in flight to its
    worker, within a byte budget, before the first answer comes back.
    The worker answers in FIFO order, so each answer settles the head
    frame and acknowledges its items in submission order.

    The copy driver ({!Par_runtime}) raises the {!event}s, carries out
    the {!action}s over the frame link its backend supplies, and blocks
    for an answer while {!awaiting} says so.  A [Fail] takes the same
    supervisor loop as a crash of a local call: a retry replays the
    retention ring into a fresh worker and raises {!Crash}, a give-up
    retires the copy and raises {!Give_up}. *)

exception Remote_crash of string
(** The remote peer failed: the callback raised in the worker, the
    worker died, or it broke the protocol.  The supervisor treats it
    like a local filter exception. *)

(** A worker's answer to the head frame: one emission per item it
    processed, in order, and the error when the callback raised after
    that prefix. *)
type response = { outs : Filter.buffer option list; error : string option }

type event =
  | Submit of Engine.item list
      (** [Data] items for one frame, owned by the window from now on,
          also while they wait for credit.  Raised only when nothing is
          {!awaiting}. *)
  | Response of response
  | Crash  (** the worker was replaced: its pending answers are lost *)
  | Give_up  (** the copy retires *)
  | Drain  (** barrier edge: settle every frame in flight *)
  | Idle
      (** the copy's input queue is empty: settle every frame in
          flight, so no finished answer waits for the next input *)

type action =
  | Send of Engine.item list  (** one data frame *)
  | Ack of Engine.item * Filter.buffer option
      (** the item is done: count it, forward its emission, retain it
          for replay *)
  | Resend of Engine.item list list
      (** the unacknowledged frames, in order, to the fresh worker *)
  | Reroute of Engine.item list  (** everything the window still owed *)
  | Fail of string  (** the worker crashed; always the last action *)

type wait =
  | Credit  (** a submitted frame waits for credit: a credit stall *)
  | Settle  (** a drain, an idle edge or a depth-1 frame is in flight *)

type t

val byte_budget : int
(** In-flight request bytes one window may hold: 64 KiB, under the
    default socketpair send buffer, so frames that overflow their ring
    slot never block the driver's writes.  A frame over 32 KiB is
    charged the whole budget: it travels alone on an empty window. *)

val create : depth:int -> frame_bytes:int -> t
(** An empty window of [depth] credits (at least 1) whose frames
    {!absorb} within [frame_bytes]: the payload of one ring slot, so an
    absorbing frame never overflows to the control socket. *)

val step : t -> event -> action list
(** Apply one event; carry out the actions in order. *)

val absorb : t -> (int -> Engine.item option) -> unit
(** [absorb w take] grows the frame waiting for credit with the items
    already waiting behind it: [take room] hands over the next item if
    its {!Engine.item_cost} is at most [room], else [None].  The frame's
    estimate (32 bytes plus its items' costs) stays within
    [frame_bytes]; the absorbed items are owned by the window like the
    frame's own, acknowledged after them, resent on {!Crash} and
    re-routed on {!Give_up}.  Without a frame waiting for credit
    ([awaiting] is not [Some Credit]) it never calls [take]: a frame
    sent into a free credit carries what was submitted. *)

val awaiting : t -> wait option
(** The answer the driver must block for before its next event, if
    any; there is then always a frame in flight. *)

val in_flight : t -> int
(** Frames sent and not yet settled. *)
