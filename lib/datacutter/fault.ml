(* Deterministic, seedable fault injection for the filter-stream
   runtimes.

   A fault plan maps (stage, copy) sites to scripted faults — crash
   after N buffers, fixed or stochastic slowdown, transient [process]
   exceptions — plus (sim-only) link delay spikes.  Plans are parsed
   from the [--faults SPEC] CLI flag; the spec grammar is documented in
   docs/ROBUSTNESS.md:

     SPEC   := clause (';' clause)*
     clause := 'seed=' INT
             | SITE ':' FAULT
             | 'link' INT ':delay@' INT '+' FLOAT
     SITE   := (INT | '*') '.' (INT | '*')
     FAULT  := 'crash@' INT          crash once, after INT buffers
             | 'slow*' FLOAT         every call slowed by a fixed factor
             | 'slow~' FLOAT         seeded stochastic slowdown, mean FLOAT
             | 'flaky@' INT 'x' INT  calls INT..INT+count-1 raise transients

   All stochastic choices derive from the plan's seed and the (stage,
   copy, call) coordinates, so the same seed always yields the same
   fault trace — a prerequisite for reproducing failures and for
   comparing the simulator's predictions against faulty executions. *)

exception Injected_crash of string
exception Injected_transient of string

type kind =
  | Crash_after of int
  | Slowdown of { factor : float; jitter : bool }
  | Flaky of { first : int; count : int }

type site = { fs_stage : int option; fs_copy : int option }
type clause = { site : site; kind : kind }
type link_fault = { lf_link : int; lf_after : int; lf_extra_s : float }

type plan = { seed : int; clauses : clause list; link_faults : link_fault list }

let empty = { seed = 0; clauses = []; link_faults = [] }
let is_empty p = p.clauses = [] && p.link_faults = []

(* --- printing (canonical form; parse/to_string round-trip) --- *)

let string_of_sel = function None -> "*" | Some i -> string_of_int i

(* Shortest decimal form that reparses to the same float.  A bare "%g"
   keeps only six significant digits, so printing a plan with e.g.
   factor 1.2345678 and parsing it back used to yield a *different*
   plan — breaking parse ∘ print ∘ parse = parse. *)
let string_of_float_rt f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let string_of_clause c =
  let site =
    Printf.sprintf "%s.%s" (string_of_sel c.site.fs_stage)
      (string_of_sel c.site.fs_copy)
  in
  match c.kind with
  | Crash_after n -> Printf.sprintf "%s:crash@%d" site n
  | Slowdown { factor; jitter } ->
      Printf.sprintf "%s:slow%c%s" site
        (if jitter then '~' else '*')
        (string_of_float_rt factor)
  | Flaky { first; count } -> Printf.sprintf "%s:flaky@%dx%d" site first count

let to_string p =
  let parts =
    (if p.seed <> 0 then [ Printf.sprintf "seed=%d" p.seed ] else [])
    @ List.map string_of_clause p.clauses
    @ List.map
        (fun lf ->
          Printf.sprintf "link%d:delay@%d+%s" lf.lf_link lf.lf_after
            (string_of_float_rt lf.lf_extra_s))
        p.link_faults
  in
  (* a plan with no faults and the default seed would print as "",
     which [parse] rejects — spell it canonically instead so printing
     always yields an accepted spec *)
  if parts = [] then "seed=0" else String.concat ";" parts

(* --- parsing --- *)

let trim = String.trim

let parse_sel s =
  if s = "*" then Ok None
  else
    match int_of_string_opt s with
    | Some i when i >= 0 -> Ok (Some i)
    | _ -> Error (Printf.sprintf "bad stage/copy selector %S" s)

(* split [s] once on [c]; Error if absent *)
let split1 c s =
  match String.index_opt s c with
  | None -> Error (Printf.sprintf "expected %C in %S" c s)
  | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let ( let* ) = Result.bind

let parse_fault site s =
  let pos_int what v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Printf.sprintf "bad %s %S (want integer >= 1)" what v)
  in
  if String.length s > 6 && String.sub s 0 6 = "crash@" then
    let* n = pos_int "crash count" (String.sub s 6 (String.length s - 6)) in
    Ok { site; kind = Crash_after n }
  else if String.length s > 5 && String.sub s 0 5 = "slow*" then
    match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some f when f >= 1.0 -> Ok { site; kind = Slowdown { factor = f; jitter = false } }
    | _ -> Error (Printf.sprintf "bad slowdown factor in %S (want float >= 1)" s)
  else if String.length s > 5 && String.sub s 0 5 = "slow~" then
    match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some f when f >= 1.0 -> Ok { site; kind = Slowdown { factor = f; jitter = true } }
    | _ -> Error (Printf.sprintf "bad slowdown factor in %S (want float >= 1)" s)
  else if String.length s > 6 && String.sub s 0 6 = "flaky@" then
    let body = String.sub s 6 (String.length s - 6) in
    let* first, count = split1 'x' body in
    let* first = pos_int "flaky start" first in
    let* count = pos_int "flaky count" count in
    Ok { site; kind = Flaky { first; count } }
  else Error (Printf.sprintf "unknown fault %S (want crash@N, slow*F, slow~F or flaky@NxC)" s)

let parse_link_clause s =
  (* "link<I>:delay@<N>+<S>" with the "link" prefix already checked *)
  let* idx, rest = split1 ':' (String.sub s 4 (String.length s - 4)) in
  let* link =
    match int_of_string_opt idx with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "bad link index in %S" s)
  in
  if String.length rest > 6 && String.sub rest 0 6 = "delay@" then
    let body = String.sub rest 6 (String.length rest - 6) in
    let* after, extra = split1 '+' body in
    let* after =
      match int_of_string_opt after with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "bad transfer index in %S" s)
    in
    match float_of_string_opt extra with
    | Some e when e >= 0.0 ->
        Ok { lf_link = link; lf_after = after; lf_extra_s = e }
    | _ -> Error (Printf.sprintf "bad delay seconds in %S" s)
  else Error (Printf.sprintf "unknown link fault %S (want linkI:delay@N+S)" s)

let parse_clause p s =
  if String.length s > 5 && String.sub s 0 5 = "seed=" then
    match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some seed -> Ok { p with seed }
    | None -> Error (Printf.sprintf "bad seed in %S" s)
  else if String.length s > 4 && String.sub s 0 4 = "link" then
    let* lf = parse_link_clause s in
    Ok { p with link_faults = p.link_faults @ [ lf ] }
  else
    let* site_s, fault_s = split1 ':' s in
    let* stage_s, copy_s = split1 '.' site_s in
    let* fs_stage = parse_sel stage_s in
    let* fs_copy = parse_sel copy_s in
    let* clause = parse_fault { fs_stage; fs_copy } fault_s in
    Ok { p with clauses = p.clauses @ [ clause ] }

let parse spec =
  let parts =
    String.split_on_char ';' spec |> List.map trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc part ->
        let* p = acc in
        parse_clause p part)
      (Ok empty) parts

(* --- per-site resolution --- *)

type site_faults = {
  crash_after : int option;
  slow : (float * bool) option;  (* factor, jitter *)
  flaky : (int * int) option;    (* first call, count *)
}

let no_faults = { crash_after = None; slow = None; flaky = None }

let matches site ~stage ~copy =
  (match site.fs_stage with None -> true | Some s -> s = stage)
  && match site.fs_copy with None -> true | Some c -> c = copy

let resolve p ~stage ~copy =
  List.fold_left
    (fun acc c ->
      if matches c.site ~stage ~copy then
        match c.kind with
        | Crash_after n -> { acc with crash_after = Some n }
        | Slowdown { factor; jitter } -> { acc with slow = Some (factor, jitter) }
        | Flaky { first; count } -> { acc with flaky = Some (first, count) }
      else acc)
    no_faults p.clauses

(* --- per-copy injection state (persists across filter restarts) --- *)

type state = {
  st_stage : int;
  st_copy : int;
  st_seed : int;
  st_cfg : site_faults;
  mutable st_calls : int;    (* process attempts, incl. failed ones *)
  mutable st_crashed : bool; (* the scripted crash already fired *)
}

let state_for p ~stage ~copy =
  {
    st_stage = stage;
    st_copy = copy;
    st_seed = p.seed;
    st_cfg = resolve p ~stage ~copy;
    st_calls = 0;
    st_crashed = false;
  }


(* Deterministic uniform [0,1) from (seed, stage, copy, call). *)
let u01 ~seed ~stage ~copy ~call =
  let h = ref (seed lxor 0x2545F491) in
  let feed v =
    h := (!h lxor (v + 0x9E3779B9 + (!h lsl 6) + (!h lsr 2))) land max_int
  in
  feed stage;
  feed copy;
  feed call;
  let x = !h in
  let x = x lxor (x lsr 16) in
  let x = x * 0x45D9F3B land max_int in
  let x = x lxor (x lsr 16) in
  let x = x * 0x45D9F3B land max_int in
  let x = x lxor (x lsr 16) in
  float_of_int (x land 0xFFFFFF) /. 16777216.0

(* No scripted fault can ever fire at this site: [tick] is pure
   accounting.  Lets fast paths (e.g. wire-frame batching) engage only
   where they cannot change injected-fault semantics. *)
let inert st =
  st.st_cfg.crash_after = None
  && st.st_cfg.slow = None
  && st.st_cfg.flaky = None

(* Slowdown factor for the last ticked call (1.0 when unaffected).
   Stochastic slowdowns are uniform on [1, 2*mean - 1], preserving the
   requested mean while staying deterministic per seed. *)
let slow_factor st =
  match st.st_cfg.slow with
  | None -> 1.0
  | Some (f, false) -> f
  | Some (f, true) ->
      let u =
        u01 ~seed:st.st_seed ~stage:st.st_stage ~copy:st.st_copy
          ~call:st.st_calls
      in
      1.0 +. ((f -. 1.0) *. 2.0 *. u)

let site_label st = Printf.sprintf "stage %d copy %d" st.st_stage st.st_copy

(* Account one process attempt; raise the scripted fault if this call is
   its trigger.  A crash fires exactly once (restarted copies run on),
   transients fire for every attempt inside the flaky window — retrying
   advances the call counter, so a bounded window always clears. *)
let tick st =
  st.st_calls <- st.st_calls + 1;
  let n = st.st_calls in
  (match st.st_cfg.crash_after with
  | Some c when (not st.st_crashed) && n = c + 1 ->
      st.st_crashed <- true;
      raise
        (Injected_crash
           (Printf.sprintf "injected crash at %s after %d buffers"
              (site_label st) c))
  | _ -> ());
  match st.st_cfg.flaky with
  | Some (first, count) when n >= first && n < first + count ->
      raise
        (Injected_transient
           (Printf.sprintf "injected transient at %s (call %d)"
              (site_label st) n))
  | _ -> ()

(* Real-time penalty to apply after a call that ran for [elapsed]
   seconds (the parallel runtime's slowdown mechanism). *)
let extra_delay st ~elapsed =
  let f = slow_factor st in
  if f > 1.0 then (f -. 1.0) *. elapsed else 0.0

let link_extra p ~link ~transfer =
  List.fold_left
    (fun acc lf ->
      if lf.lf_link = link && transfer >= lf.lf_after then acc +. lf.lf_extra_s
      else acc)
    0.0 p.link_faults
