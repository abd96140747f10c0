(* Blocking points of a run behind one seam (see the .mli): systhreads
   for a caller that is not a fiber host, effect fibers on per-host run
   queues otherwise.

   A fiber parks on a [waiter]: a one-shot cell that is [Unset] until
   woken.  The effect handler parks the continuation in it by
   compare-and-set, so a wake that lands between the fiber's last check
   and its suspension finds [Unset] turned [Set] and the handler
   re-queues the fiber at once: no wake-up is lost.  A wake from the
   host's own thread pushes onto the run queue, which only that thread
   touches; any other thread goes through the host's inbox. *)

let now = Unix.gettimeofday

(* A fiber's yield bookkeeping. *)
type fiber = { mutable yielded : float; mutable mark : float }

type host = {
  runq : (unit -> unit) Queue.t;  (* host thread only *)
  mu : Mutex.t;
  cv : Condition.t;
  inbox : (unit -> unit) Queue.t;  (* guarded by mu *)
  mutable idle : bool;  (* guarded by mu: waiting on cv *)
  mutable closed : bool;  (* guarded by mu *)
  mutable timers : (float * (unit -> unit)) list;
      (* host thread only, by deadline *)
  mutable current : fiber;  (* the fiber the host thread runs *)
  mutable tid : int;  (* the host thread's id, -1 before it starts *)
}

type wstate = Unset | Set | Parked of host * (unit -> unit)
type waiter = wstate Atomic.t

type _ Effect.t +=
  | Park : waiter -> unit Effect.t
  | Yield : unit Effect.t
  | Sleep : float -> unit Effect.t

(* The hosts whose threads are running, looked up by thread id. *)
let running : host list Atomic.t = Atomic.make []

let rec update r f =
  let old = Atomic.get r in
  if not (Atomic.compare_and_set r old (f old)) then update r f

let self () =
  match Atomic.get running with
  | [] -> None
  | hs ->
      let id = Thread.id (Thread.self ()) in
      List.find_opt (fun h -> h.tid = id) hs

let schedule h resume =
  if h.tid = Thread.id (Thread.self ()) then Queue.push resume h.runq
  else begin
    Mutex.lock h.mu;
    Queue.push resume h.inbox;
    if h.idle then Condition.signal h.cv;
    Mutex.unlock h.mu
  end

let wake (w : waiter) =
  match Atomic.exchange w Set with
  | Parked (h, resume) -> schedule h resume
  | Unset | Set -> ()

(* --- blocking --- *)

type cond = {
  cv : Condition.t;
  fibers : waiter Queue.t;  (* guarded by the caller's mutex *)
}

let cond () = { cv = Condition.create (); fibers = Queue.create () }

let wait c m =
  match self () with
  | None -> Condition.wait c.cv m
  | Some _ ->
      let w = Atomic.make Unset in
      Queue.push w c.fibers;
      Mutex.unlock m;
      Effect.perform (Park w);
      Mutex.lock m

let signal c =
  match Queue.take_opt c.fibers with
  | Some w -> wake w
  | None -> Condition.signal c.cv

let broadcast c =
  while not (Queue.is_empty c.fibers) do
    wake (Queue.pop c.fibers)
  done;
  Condition.broadcast c.cv

(* Move the inbox onto the run queue (host thread only).  The unlocked
   emptiness check may read a stale length; the fiber is then picked up
   at the host's next turn. *)
let pull h =
  if not (Queue.is_empty h.inbox) then begin
    Mutex.lock h.mu;
    Queue.transfer h.inbox h.runq;
    Mutex.unlock h.mu
  end

(* Queue the sleepers whose deadline has passed (host thread only): one
   comparison with the earliest deadline when none has. *)
let fire_timers h =
  match h.timers with
  | (t, _) :: _ when t <= now () ->
      let due, later = List.partition (fun (t', _) -> t' <= now ()) h.timers in
      h.timers <- later;
      List.iter (fun (_, r) -> Queue.push r h.runq) due
  | _ -> ()

let yield () =
  match self () with
  | None -> ()
  | Some h ->
      fire_timers h;
      pull h;
      if not (Queue.is_empty h.runq) then begin
        let f = h.current in
        let t0 = now () in
        Effect.perform Yield;
        f.yielded <- f.yielded +. (now () -. t0)
      end

let quantum_s = 0.001

let tick () =
  match self () with
  | None -> ()
  | Some h ->
      let f = h.current in
      if now () -. f.mark >= quantum_s then begin
        yield ();
        f.mark <- now ()
      end

(* Installed once for every domain: on a thread that hosts no fibers
   [tick] finds no host and returns. *)
let () = Lang.Interp.set_yield_hook tick

let yielded_s () = match self () with None -> 0.0 | Some h -> h.current.yielded

let sleep s =
  if s > 0.0 then
    match self () with
    | None -> Unix.sleepf s
    | Some _ -> Effect.perform (Sleep s)

(* --- hosts --- *)

let start h body () =
  let f = { yielded = 0.0; mark = now () } in
  let resume k () =
    h.current <- f;
    Effect.Deep.continue k ()
  in
  h.current <- f;
  Effect.Deep.match_with body ()
    {
      retc = Fun.id;
      exnc =
        (fun e ->
          Logs.err (fun m -> m "fiber raised %s" (Printexc.to_string e)));
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Park w ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let r = resume k in
                  if not (Atomic.compare_and_set w Unset (Parked (h, r))) then
                    Queue.push r h.runq)
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (resume k) h.runq)
          | Sleep s ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let t = now () +. s in
                  h.timers <-
                    List.merge
                      (fun (a, _) (b, _) -> Float.compare a b)
                      h.timers
                      [ (t, resume k) ])
          | _ -> None);
    }

(* The host loop: run what is runnable; with nothing runnable, wait for
   the inbox (or poll it while a fiber sleeps); end once closed with
   nothing left to run. *)
let rec serve h =
  fire_timers h;
  match Queue.take_opt h.runq with
  | Some r ->
      r ();
      serve h
  | None ->
      pull h;
      if not (Queue.is_empty h.runq) then serve h
      else begin
        Mutex.lock h.mu;
        let go_on =
          if not (Queue.is_empty h.inbox) then true
          else
            match h.timers with
            | (t, _) :: _ ->
                Mutex.unlock h.mu;
                Unix.sleepf (Float.min quantum_s (Float.max 0.0 (t -. now ())));
                Mutex.lock h.mu;
                true
            | [] when h.closed -> false
            | [] ->
                h.idle <- true;
                Condition.wait h.cv h.mu;
                h.idle <- false;
                true
        in
        Queue.transfer h.inbox h.runq;
        Mutex.unlock h.mu;
        if go_on then serve h
      end

let host_main h () =
  h.tid <- Thread.id (Thread.self ());
  update running (fun hs -> h :: hs);
  Fun.protect
    ~finally:(fun () -> update running (List.filter (fun h' -> h' != h)))
    (fun () -> serve h)

type kind = Thread | Domain

type hosts = { hs : host array; joins : (unit -> unit) array }

let hosts plan =
  let start_host (kind, bs) =
    let h =
      {
        runq = Queue.create ();
        mu = Mutex.create ();
        cv = Condition.create ();
        inbox = Queue.create ();
        idle = false;
        closed = false;
        timers = [];
        current = { yielded = 0.0; mark = 0.0 };
        tid = -1;
      }
    in
    List.iter (fun b -> Queue.push (start h b) h.runq) bs;
    let join =
      match kind with
      | Thread ->
          let t = Thread.create (host_main h) () in
          fun () -> Thread.join t
      | Domain ->
          let d = Domain.spawn (host_main h) in
          fun () -> Domain.join d
    in
    (h, join)
  in
  let started = Array.of_list (List.map start_host plan) in
  { hs = Array.map fst started; joins = Array.map snd started }

let close { hs; _ } =
  Array.iter
    (fun h ->
      Mutex.lock h.mu;
      h.closed <- true;
      Condition.signal h.cv;
      Mutex.unlock h.mu)
    hs

let join { joins; _ } i = joins.(i) ()

(* --- events --- *)

(* A pipe, because OCaml 5.1's [Condition.wait] has no timeout: [notify]
   writes a byte, [await] selects on the read end, and a byte written
   before the waiter selects is still there when it does.  [notify] and
   [close_event] hold [emu], so a [notify] after the close (a leaked
   copy exiting late) writes to no descriptor. *)
type event = {
  emu : Mutex.t;
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  mutable live : bool;  (* guarded by emu *)
}

let event () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wr;
  { emu = Mutex.create (); rd; wr; live = true }

(* A full pipe already holds a wake-up, so [EAGAIN] loses none. *)
let notify e =
  Mutex.protect e.emu (fun () ->
      if e.live then
        try ignore (Unix.single_write e.wr (Bytes.make 1 '!') 0 1)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())

let await e ?until ready =
  let buf = Bytes.create 64 in
  let rec loop () =
    let left = match until with Some t -> t -. Obs.Clock.elapsed_s () | None -> -1.0 in
    ready ()
    || (until = None || left > 0.0)
       && begin
            (match Unix.select [ e.rd ] [] [] left with
            | [], _, _ | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | _ -> ignore (Unix.read e.rd buf 0 64));
            loop ()
          end
  in
  loop ()

let close_event e =
  Mutex.protect e.emu (fun () ->
      if e.live then begin
        e.live <- false;
        Unix.close e.rd;
        Unix.close e.wr
      end)
