(* Shared fault-tolerance vocabulary of the two runtimes: the retry /
   retirement policy, the recovery counters both executors surface in
   their metrics, structured run errors, and topology validation.

   Supervisor state machine for one filter copy (implemented by
   Par_runtime, mirrored by Sim_runtime):

     running --(callback raises)--> retrying --(restart + replay ok)--> running
        |                              |
        |                              +--(retries exhausted)--> retired
        |                                                           |
        +--(marker quota met, finalize ok)--> done                  |
                                                                    v
                                      zombie router: re-route queued
                                      buffers to surviving copies,
                                      forward markers so the pipeline
                                      still drains

   If every copy of a stage retires the run aborts with [Stage_dead];
   a watchdog that sees every live copy blocked past its threshold
   aborts with [Stalled] and a per-copy report. *)

type policy = {
  max_retries : int;          (* restart attempts per copy before retiring *)
  backoff_s : float;          (* base restart delay; doubles per attempt *)
  retention : int;            (* replay ring: buffers kept per copy *)
  call_budget_s : float option;
      (* per-call budget; completed overruns are counted, stuck calls
         are classified as blocked by the watchdog *)
  watchdog_ms : int option;   (* no-progress threshold; None = no watchdog *)
}

let default_policy =
  {
    max_retries = 3;
    backoff_s = 0.005;
    retention = 64;
    call_budget_s = None;
    watchdog_ms = None;
  }

(* --- recovery counters --- *)

type recovery = {
  mutable crashes : int;          (* callbacks that raised (incl. injected) *)
  mutable retries : int;          (* copy restarts attempted *)
  mutable replayed : int;         (* buffers replayed from retention rings *)
  mutable replay_truncated : int; (* restarts whose ring missed history *)
  mutable rerouted : int;         (* buffers re-routed off dead copies *)
  mutable retired : int;          (* copies permanently retired *)
  mutable budget_exceeded : int;  (* completed calls over the budget *)
  mutable watchdog_trips : int;
}

let fresh_recovery () =
  {
    crashes = 0;
    retries = 0;
    replayed = 0;
    replay_truncated = 0;
    rerouted = 0;
    retired = 0;
    budget_exceeded = 0;
    watchdog_trips = 0;
  }

let recovery_fields r =
  [
    ("crashes", r.crashes);
    ("retries", r.retries);
    ("replayed", r.replayed);
    ("replay_truncated", r.replay_truncated);
    ("rerouted", r.rerouted);
    ("retired", r.retired);
    ("budget_exceeded", r.budget_exceeded);
    ("watchdog_trips", r.watchdog_trips);
  ]

let recovery_total r =
  List.fold_left (fun a (_, v) -> a + v) 0 (recovery_fields r)

let recovery_to_json r =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (recovery_fields r))

let pp_recovery ppf r =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
    (recovery_fields r)

(* --- structured run errors --- *)

type copy_report = {
  cr_stage : int;
  cr_copy : int;
  cr_label : string;
  cr_state : string;  (* running / computing / blocked_push / ... *)
  cr_items : int;     (* buffers processed so far *)
  cr_queue_len : int; (* input-queue backlog at report time (logical,
                         spilled items included) *)
  cr_queue_bytes : int;    (* in-memory bytes of that backlog — tells
                              "many tiny items" from "few huge ones" *)
  cr_spilled_items : int;  (* backlog items currently spilled to disk *)
}

type run_error =
  | Invalid_topology of string
  | Stage_dead of { stage : int; stage_name : string; error : string }
  | Stalled of { after_s : float; report : copy_report list }
  | Unsupported of string
  | Setup_failed of string

exception Run_failed of run_error

let ok_exn = function Ok v -> v | Error e -> raise (Run_failed e)

let copy_report_to_json cr =
  Obs.Json.Obj
    [
      ("stage", Obs.Json.Int cr.cr_stage);
      ("copy", Obs.Json.Int cr.cr_copy);
      ("label", Obs.Json.Str cr.cr_label);
      ("state", Obs.Json.Str cr.cr_state);
      ("items", Obs.Json.Int cr.cr_items);
      ("queue_len", Obs.Json.Int cr.cr_queue_len);
      ("queue_bytes", Obs.Json.Int cr.cr_queue_bytes);
      ("spilled_items", Obs.Json.Int cr.cr_spilled_items);
    ]

let run_error_to_json = function
  | Invalid_topology msg ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.Str "invalid_topology"); ("error", Obs.Json.Str msg) ]
  | Stage_dead { stage; stage_name; error } ->
      Obs.Json.Obj
        [
          ("kind", Obs.Json.Str "stage_dead");
          ("stage", Obs.Json.Int stage);
          ("stage_name", Obs.Json.Str stage_name);
          ("error", Obs.Json.Str error);
        ]
  | Stalled { after_s; report } ->
      Obs.Json.Obj
        [
          ("kind", Obs.Json.Str "stalled");
          ("after_s", Obs.Json.Float after_s);
          ("copies", Obs.Json.List (List.map copy_report_to_json report));
        ]
  | Unsupported msg ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.Str "unsupported"); ("error", Obs.Json.Str msg) ]
  | Setup_failed msg ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.Str "setup_failed"); ("error", Obs.Json.Str msg) ]

let pp_copy_report ppf cr =
  Fmt.pf ppf "%-16s %-12s items=%d queue=%d bytes=%d" cr.cr_label cr.cr_state
    cr.cr_items cr.cr_queue_len cr.cr_queue_bytes;
  if cr.cr_spilled_items > 0 then
    Fmt.pf ppf " spilled=%d" cr.cr_spilled_items

let pp_run_error ppf = function
  | Invalid_topology msg -> Fmt.pf ppf "invalid topology: %s" msg
  | Stage_dead { stage; stage_name; error } ->
      Fmt.pf ppf "stage %d (%s) died: every copy retired; last error: %s" stage
        stage_name error
  | Stalled { after_s; report } ->
      Fmt.pf ppf "pipeline stalled: no progress for %.3fs@\n%a" after_s
        Fmt.(list ~sep:(any "@\n") (any "  " ++ pp_copy_report))
        report
  | Unsupported msg -> Fmt.pf ppf "backend unsupported: %s" msg
  | Setup_failed msg -> Fmt.pf ppf "setup failed: %s" msg

(* Distinct process exit codes so soak scripts can triage structured
   failures without parsing stderr.  3/4/5 are the triage classes the
   robustness docs commit to; 6/7 cover the remaining constructors and
   9 a worker setup the host's resources refused.  8 is unused: it
   named a run option that no longer exists, and no code is renumbered
   so scripts keyed on 9 keep working.  cmdliner reserves 123-125, so
   small codes are safe. *)
let exit_code_of = function
  | Stalled _ -> 3
  | Stage_dead { error; _ } ->
      (* The proc backend labels wire-protocol failures with this
         marker (see Proc_runtime's rpc loop); a retired stage whose
         last error was a protocol violation is a different triage
         bucket than one that exhausted its retries crashing. *)
      let contains hay needle =
        let n = String.length hay and m = String.length needle in
        let rec find i = i + m <= n && (String.sub hay i m = needle || find (i + 1)) in
        m = 0 || find 0
      in
      if contains error "protocol error" then 5 else 4
  | Invalid_topology _ -> 6
  | Unsupported _ -> 7
  | Setup_failed _ -> 9

(* --- topology validation ---

   [Topology.t] is a concrete record, so runtimes can receive values
   that never went through [Topology.create]; both re-validate here and
   return a clean [Invalid_topology] instead of looping or raising
   [Invalid_argument] mid-run. *)

let validate ~queue_capacity (topo : Topology.t) =
  let err fmt = Printf.ksprintf (fun m -> Error (Invalid_topology m)) fmt in
  let stages = topo.Topology.stages in
  let n = List.length stages in
  if n = 0 then err "empty pipeline (no stages)"
  else if n < 2 then err "pipeline needs at least a source and a sink stage"
  else if List.length topo.Topology.links <> n - 1 then
    err "need exactly one link fewer than stages (%d stages, %d links)" n
      (List.length topo.Topology.links)
  else
    if queue_capacity < 1 then
      err "queue capacity must be >= 1 (got %d)" queue_capacity
    else (
        let bad_stage =
          List.find_mapi
            (fun i (st : Topology.stage) ->
              if st.Topology.width < 1 then
                Some
                  (Printf.sprintf "stage %d (%s) has zero copies" i
                     st.Topology.stage_name)
              else if st.Topology.power <= 0.0 then
                Some
                  (Printf.sprintf "stage %d (%s) has non-positive power" i
                     st.Topology.stage_name)
              else
                match (i, st.Topology.role) with
                | 0, Topology.Source _ -> None
                | 0, _ -> Some "first stage must be a Source"
                | i, Topology.Sink _ when i = n - 1 -> None
                | i, _ when i = n - 1 -> Some "last stage must be a Sink"
                | _, Topology.Inner _ -> None
                | i, _ ->
                    Some
                      (Printf.sprintf
                         "stage %d must be an Inner filter (Sources and Sinks \
                          only at the ends)"
                         i))
            stages
        in
        match bad_stage with
        | Some m -> Error (Invalid_topology m)
        | None -> (
            let bad_link =
              List.find_mapi
                (fun i (l : Topology.link) ->
                  if l.Topology.bandwidth <= 0.0 then
                    Some (Printf.sprintf "link %d has non-positive bandwidth" i)
                  else if l.Topology.latency < 0.0 then
                    Some (Printf.sprintf "link %d has negative latency" i)
                  else None)
                topo.Topology.links
            in
            match bad_link with Some m -> Error (Invalid_topology m) | None -> Ok ()))
