(* Bounded blocking queue (a mutex and two [Sched] condition variables,
   so a waiter is a thread or a fiber).  Producers block on a full
   queue, consumers on an empty one; both report the seconds they spent
   blocked so the runtime can account stalls.

   Batch-aware: [push_all]/[pop_all] move a whole batch under one lock
   acquisition and one wakeup, so a batched hot path pays the
   mutex/condvar round-trip per batch instead of per item.  A single
   item is a batch of one: every push and token goes through [enqueue]
   and every blocking pop through [pop_all], and these and [try_pop]
   account through the same two helpers, so occupancy accounting
   (observed after every mutation) and signalling (never [not_full]
   after close — pushers can only fail fast then, so the wakeup would
   be wasted) cannot diverge between the single-item and batched
   calls.

   Byte accounting and spill: every item is charged through a [cost]
   function.  Without a spill config the queue behaves exactly as the
   classic bounded queue (bytes are merely observed); with one, the
   logical FIFO becomes three sections —

     front (in-memory window)  ++  disk segments  ++  back (buffer)

   Pushes land in [front] while it is under both the item capacity and
   the byte budget AND nothing sits behind it; otherwise they append to
   [back], which is flushed to an encoded on-disk segment once it
   reaches the segment target.  Pops serve [front] and transparently
   refill it from the oldest segment (or promote [back] when no
   segments remain), preserving FIFO order.  Pushers NEVER block when
   spill is enabled — back-pressure degrades to disk instead of
   stalling the producer, so a budgeted run cannot deadlock on a
   merely-large dataset.

   Two shutdown paths with different guarantees:
   - the shared [stop] flag is the *abort* path: every waiter (and every
     later caller) raises [Aborted] immediately, queued items may be
     dropped — the run has already failed;
   - [close] is the *graceful* path: blocked pushers wake exactly once
     and raise [Closed], poppers keep draining whatever was already
     enqueued — front, then disk segments, then back — and only raise
     [Closed] once all three sections are empty: no accepted item is
     ever dropped, spilled or not. *)

exception Aborted
exception Closed

type 'a spill = {
  sp_budget : int;
  sp_dir : Spill.dir;
  sp_encode : 'a -> string;
  sp_decode : string -> 'a;
  sp_seg_target : int;
}

let spill_config ~budget ~dir ~encode ~decode =
  if budget < 0 then
    invalid_arg
      (Printf.sprintf "Bqueue.spill_config: budget must be >= 0 (got %d)"
         budget);
  {
    sp_budget = budget;
    sp_dir = dir;
    sp_encode = encode;
    sp_decode = decode;
    (* Segments sized to the budget (clamped to [4 KiB, 256 KiB]) keep
       the refill slack proportional: one refill loads at most one
       segment over the window, so the in-memory high water stays
       within budget + seg_target + one item. *)
    sp_seg_target = max 4096 (min (max budget 1) 262144);
  }

type stats = {
  st_items : int;
  st_mem_bytes : int;
  st_disk_items : int;
  st_disk_bytes : int;
  st_spilled_bytes : int;
  st_spill_segments : int;
  st_mem_high_water : int;
}

let no_stats =
  {
    st_items = 0;
    st_mem_bytes = 0;
    st_disk_items = 0;
    st_disk_bytes = 0;
    st_spilled_bytes = 0;
    st_spill_segments = 0;
    st_mem_high_water = 0;
  }

type 'a t = {
  items : 'a Queue.t; (* front: the poppable in-memory window *)
  back : 'a Queue.t; (* in-memory buffer behind the disk segments *)
  segs : (string * int * int) Queue.t; (* (path, items, bytes), FIFO *)
  mutex : Mutex.t;
  not_empty : Sched.cond;
  not_full : Sched.cond;
  capacity : int;
  stop : bool Atomic.t;
  cost : 'a -> int;
  spill : 'a spill option;
  mutable closed : bool; (* guarded by mutex *)
  mutable mem_bytes : int; (* cost of items in front + back *)
  mutable back_bytes : int;
  mutable disk_items : int;
  mutable disk_bytes : int;
  mutable spilled_bytes : int; (* cumulative segment bytes written *)
  mutable spill_segments : int; (* cumulative segments written *)
  mutable high_water : int; (* max mem_bytes ever *)
  occupancy : Obs.Hist.t;  (* length after each push/pop; guarded by mutex *)
}

let create ?(cost = fun _ -> 0) ?spill ~stop capacity =
  if capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Bqueue.create: capacity must be >= 1 (got %d)" capacity);
  {
    items = Queue.create ();
    back = Queue.create ();
    segs = Queue.create ();
    mutex = Mutex.create ();
    not_empty = Sched.cond ();
    not_full = Sched.cond ();
    capacity;
    stop;
    cost;
    spill;
    closed = false;
    mem_bytes = 0;
    back_bytes = 0;
    disk_items = 0;
    disk_bytes = 0;
    spilled_bytes = 0;
    spill_segments = 0;
    high_water = 0;
    occupancy = Obs.Hist.create ~bounds:(Obs.Hist.occupancy_bounds ~capacity);
  }

(* The two mutation helpers every public path funnels through (call
   with the mutex held). *)
let enqueued q n =
  if n > 0 then begin
    Obs.Hist.observe q.occupancy (float_of_int (Queue.length q.items));
    if n = 1 then Sched.signal q.not_empty
    else Sched.broadcast q.not_empty
  end

let dequeued q n =
  if n > 0 then begin
    Obs.Hist.observe q.occupancy (float_of_int (Queue.length q.items));
    (* After close no pusher can ever enter a wait again — they fail
       fast — so a [not_full] wakeup would only be noise. *)
    if not q.closed then
      if n = 1 then Sched.signal q.not_full
      else Sched.broadcast q.not_full
  end

let charge q c =
  q.mem_bytes <- q.mem_bytes + c;
  if q.mem_bytes > q.high_water then q.high_water <- q.mem_bytes

let check_stop q =
  if Atomic.get q.stop then begin
    Mutex.unlock q.mutex;
    raise Aborted
  end

(* All three sections empty?  (Mutex held.) *)
let logically_empty q =
  Queue.is_empty q.items && Queue.is_empty q.back && Queue.is_empty q.segs

(* Flush [back] to one on-disk segment.  (Mutex held.) *)
let flush_back q sp =
  if not (Queue.is_empty q.back) then begin
    let n = Queue.length q.back in
    let payloads =
      Queue.fold (fun acc x -> sp.sp_encode x :: acc) [] q.back |> List.rev
    in
    let path, bytes = Spill.write_segment sp.sp_dir payloads in
    Queue.push (path, n, bytes) q.segs;
    Queue.clear q.back;
    q.mem_bytes <- q.mem_bytes - q.back_bytes;
    q.back_bytes <- 0;
    q.disk_items <- q.disk_items + n;
    q.disk_bytes <- q.disk_bytes + bytes;
    q.spilled_bytes <- q.spilled_bytes + bytes;
    q.spill_segments <- q.spill_segments + 1
  end

(* Non-blocking budgeted enqueue of one item.  (Mutex held.) *)
let spill_enqueue q sp x =
  let c = q.cost x in
  if
    Queue.is_empty q.back && Queue.is_empty q.segs
    && Queue.length q.items < q.capacity
    && (Queue.is_empty q.items || q.mem_bytes + c <= sp.sp_budget)
  then begin
    Queue.push x q.items;
    charge q c
  end
  else begin
    Queue.push x q.back;
    q.back_bytes <- q.back_bytes + c;
    charge q c;
    if q.back_bytes >= sp.sp_seg_target then flush_back q sp
  end

(* Make [front] non-empty if any section holds items: decode the
   oldest disk segment, or promote [back] when no segments remain.
   (Mutex held; disk I/O happens under the lock — segments are small
   and bounded by [sp_seg_target].) *)
let refill q sp =
  if Queue.is_empty q.items then
    if not (Queue.is_empty q.segs) then begin
      let path, n, bytes = Queue.pop q.segs in
      let payloads = Spill.read_segment path in
      List.iter
        (fun p ->
          let x = sp.sp_decode p in
          Queue.push x q.items;
          charge q (q.cost x))
        payloads;
      q.disk_items <- q.disk_items - n;
      q.disk_bytes <- q.disk_bytes - bytes
    end
    else if not (Queue.is_empty q.back) then begin
      Queue.transfer q.back q.items;
      q.back_bytes <- 0
    end

let maybe_refill q =
  match q.spill with
  | None -> ()
  | Some sp -> (
      match refill q sp with
      | () -> ()
      | exception e ->
          Mutex.unlock q.mutex;
          raise e)

(* Wait for room for one more item and return the room, or [max_int]
   for a push that never waits: one under a spill config, or a token.
   (Mutex held.) *)
let room ~bounded q =
  match q.spill with
  | None when bounded ->
      while
        Queue.length q.items >= q.capacity
        && (not (Atomic.get q.stop))
        && not q.closed
      do
        Sched.wait q.not_full q.mutex "blocked_push"
      done;
      q.capacity - Queue.length q.items
  | _ -> max_int

(* Put up to [room] items of a batch, wake consumers once, and return
   the rest.  (Mutex held.) *)
let rec put_upto q room n = function
  | x :: rest when n < room ->
      (match q.spill with
      | None ->
          Queue.push x q.items;
          charge q (q.cost x)
      | Some sp -> spill_enqueue q sp x);
      put_upto q room (n + 1) rest
  | rest ->
      enqueued q n;
      rest

(* The one enqueue path, in waves when a bounded batch exceeds the free
   space (or even the capacity): each wave waits for room for at least
   one item, fills the queue, and wakes consumers once.  All-or-nothing
   is not required — items of one batch are independent stream
   elements.  A push that never waits takes the whole batch in one
   wave (under a spill config, overflow goes to the back buffer /
   disk). *)
let rec waves ~bounded q xs =
  let room = room ~bounded q in
  check_stop q;
  if q.closed then begin
    Mutex.unlock q.mutex;
    raise Closed
  end;
  match put_upto q room 0 xs with
  | [] -> ()
  | rest -> waves ~bounded q rest
  | exception e ->
      Mutex.unlock q.mutex;
      raise e

let enqueue ~bounded q xs =
  let t0 = Obs.Clock.elapsed_s () in
  Mutex.lock q.mutex;
  waves ~bounded q xs;
  let blocked = Obs.Clock.elapsed_s () -. t0 in
  Mutex.unlock q.mutex;
  blocked

let push q x = enqueue ~bounded:true q [ x ]
let push_all q = function [] -> 0.0 | xs -> enqueue ~bounded:true q xs
let push_token q x = ignore (enqueue ~bounded:false q [ x ])

(* The one dequeue path: block until at least one item is available,
   then take up to [max] (FIFO) under the same lock acquisition.
   Closed but non-empty: keep draining — close never drops an
   already-enqueued item, spilled or not. *)
let pop_all q ~max:cap =
  let t0 = Obs.Clock.elapsed_s () in
  Mutex.lock q.mutex;
  while logically_empty q && (not (Atomic.get q.stop)) && not q.closed do
    Sched.wait q.not_empty q.mutex "blocked_pop"
  done;
  check_stop q;
  if logically_empty q then begin
    Mutex.unlock q.mutex;
    raise Closed
  end;
  let blocked = Obs.Clock.elapsed_s () -. t0 in
  maybe_refill q;
  let n = max 1 (min cap (Queue.length q.items)) in
  let xs =
    List.init n (fun _ ->
        let x = Queue.pop q.items in
        q.mem_bytes <- q.mem_bytes - q.cost x;
        x)
  in
  dequeued q n;
  Mutex.unlock q.mutex;
  (xs, blocked)

let pop q =
  match pop_all q ~max:1 with
  | [ x ], blocked -> (x, blocked)
  | _ -> assert false

let close q =
  Mutex.lock q.mutex;
  if not q.closed then begin
    q.closed <- true;
    Sched.broadcast q.not_empty;
    Sched.broadcast q.not_full
  end;
  Mutex.unlock q.mutex

let length q =
  Mutex.lock q.mutex;
  let n = Queue.length q.items + q.disk_items + Queue.length q.back in
  Mutex.unlock q.mutex;
  n

let try_pop q =
  Mutex.lock q.mutex;
  maybe_refill q;
  let x =
    if Queue.is_empty q.items then None
    else begin
      let x = Queue.pop q.items in
      q.mem_bytes <- q.mem_bytes - q.cost x;
      dequeued q 1;
      Some x
    end
  in
  Mutex.unlock q.mutex;
  x

let wake q =
  Mutex.lock q.mutex;
  Sched.broadcast q.not_empty;
  Sched.broadcast q.not_full;
  Mutex.unlock q.mutex

let stats q =
  Mutex.lock q.mutex;
  let s =
    {
      st_items = Queue.length q.items + q.disk_items + Queue.length q.back;
      st_mem_bytes = q.mem_bytes;
      st_disk_items = q.disk_items;
      st_disk_bytes = q.disk_bytes;
      st_spilled_bytes = q.spilled_bytes;
      st_spill_segments = q.spill_segments;
      st_mem_high_water = q.high_water;
    }
  in
  Mutex.unlock q.mutex;
  s

let occupancy q = q.occupancy
