(* Trace sink with per-domain buffers.

   Each domain appends to a domain-local list (no lock on the hot path);
   a registry of all buffers is kept under a mutex taken only when a new
   domain records its first event.  The append is a compare-and-set, as
   systhreads sharing a domain share its buffer and may switch on the
   cons allocation.  [events] snapshots the registry and concatenates
   the buffers — callers collect after joining workers, so no append
   races a snapshot in practice. *)

type arg = Aint of int | Afloat of float | Astr of string

type event =
  | Span of {
      name : string;
      cat : string;
      ts : float;
      dur : float;
      tid : int;
      args : (string * arg) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      args : (string * arg) list;
    }
  | Counter of {
      name : string;
      ts : float;
      tid : int;
      values : (string * float) list;
    }
  | Flow_start of { name : string; id : int; ts : float; tid : int }
  | Flow_end of { name : string; id : int; ts : float; tid : int }
  | Thread_name of { tid : int; name : string }

let compiler_tid = 0
let local_pid = 1

let enabled = Atomic.make false
let registry : event list Atomic.t list ref = ref []
let registry_lock = Mutex.create ()
let flow_ids = Atomic.make 0

(* Events shipped from other processes (proc-backend workers), stored
   with the shipping pid.  Appended under the registry lock: shipments
   arrive on whichever domain services that worker's wire. *)
let shipped : (int * event) list ref = ref []
let proc_names : (int * string) list ref = ref []

let buffer : event list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = Atomic.make [] in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let clear () =
  Mutex.lock registry_lock;
  List.iter (fun b -> Atomic.set b []) !registry;
  shipped := [];
  proc_names := [];
  Mutex.unlock registry_lock

let emit_shipped ~pid evs =
  if evs <> [] then begin
    Mutex.lock registry_lock;
    shipped := List.rev_append (List.map (fun e -> (pid, e)) evs) !shipped;
    Mutex.unlock registry_lock
  end

let name_process ~pid name =
  Mutex.lock registry_lock;
  if not (List.mem_assoc pid !proc_names) then
    proc_names := (pid, name) :: !proc_names;
  Mutex.unlock registry_lock

let process_names () =
  Mutex.lock registry_lock;
  let ns = List.rev !proc_names in
  Mutex.unlock registry_lock;
  ns

let rec push b ev =
  let l = Atomic.get b in
  if not (Atomic.compare_and_set b l (ev :: l)) then push b ev

let emit ev = if Atomic.get enabled then push (Domain.DLS.get buffer) ev

let with_span ?(cat = "") ?(tid = compiler_tid) ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Clock.elapsed_s () in
    let record () =
      let t1 = Clock.elapsed_s () in
      emit (Span { name; cat; ts = t0; dur = t1 -. t0; tid; args })
    in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

let set_thread_name ~tid name = emit (Thread_name { tid; name })

let next_flow_id () = Atomic.fetch_and_add flow_ids 1

let ts_of = function
  | Span { ts; _ } | Instant { ts; _ } | Counter { ts; _ }
  | Flow_start { ts; _ } | Flow_end { ts; _ } ->
      ts
  | Thread_name _ -> 0.0

let events () =
  Mutex.lock registry_lock;
  let all = List.concat_map Atomic.get !registry in
  Mutex.unlock registry_lock;
  let meta, rest =
    List.partition (function Thread_name _ -> true | _ -> false) all
  in
  (* dedupe thread names (every copy re-announces its own) *)
  let seen = Hashtbl.create 16 in
  let meta =
    List.filter
      (function
        | Thread_name { tid; _ } ->
            if Hashtbl.mem seen tid then false
            else begin
              Hashtbl.add seen tid ();
              true
            end
        | _ -> true)
      meta
  in
  let meta =
    List.sort
      (fun a b ->
        match (a, b) with
        | Thread_name { tid = t1; _ }, Thread_name { tid = t2; _ } ->
            compare t1 t2
        | _ -> 0)
      meta
  in
  meta @ List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) rest

let events_with_pids () =
  Mutex.lock registry_lock;
  let locals = List.concat_map Atomic.get !registry in
  let foreign = List.rev !shipped in
  Mutex.unlock registry_lock;
  let all = List.map (fun e -> (local_pid, e)) locals @ foreign in
  let meta, rest =
    List.partition (function _, Thread_name _ -> true | _ -> false) all
  in
  (* dedupe thread names per (pid, tid) *)
  let seen = Hashtbl.create 16 in
  let meta =
    List.filter
      (function
        | pid, Thread_name { tid; _ } ->
            if Hashtbl.mem seen (pid, tid) then false
            else begin
              Hashtbl.add seen (pid, tid) ();
              true
            end
        | _ -> true)
      meta
  in
  let meta =
    List.sort
      (fun a b ->
        match (a, b) with
        | (p1, Thread_name { tid = t1; _ }), (p2, Thread_name { tid = t2; _ })
          ->
            compare (p1, t1) (p2, t2)
        | _ -> 0)
      meta
  in
  meta
  @ List.stable_sort (fun (_, a) (_, b) -> compare (ts_of a) (ts_of b)) rest
