(* Bounded-memory smoke over the real CLI, wired into `dune runtest`
   via the @spill-smoke alias.  Runs streambench through `cgppc run` on
   every backend with a memory budget far below the stream's in-flight
   bytes (the slow-sink cluster makes even the simulator queue), and
   asserts that

   - the budgeted run completes with exit 0 — back-pressure spills to
     disk instead of deadlocking, and the armed watchdog never trips on
     a merely-large dataset; on the real-time backends a scripted
     slowdown of the sink makes it fall behind whatever the host's
     load, so the queue before it outgrows the budget by construction;
   - the sink sees exactly the same (count, checksum) as an unbudgeted
     run on the same backend (no loss, duplication or reordering across
     the spill path);
   - the metrics JSON's "memory" section reports the budget, a nonzero
     spilled_bytes / spill_segments, and a mem_high_water within the
     budget plus the documented slack;
   - every run-scoped cgppc-spill-* directory is cleaned out of the
     temp dir once the run succeeds.

   The cgppc binary path arrives as argv(1) from the dune rule. *)

module J = Obs.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("spill-smoke: " ^ m);
      exit 1)
    fmt

let cgppc =
  if Array.length Sys.argv < 2 then die "usage: spill_smoke CGPPC_EXE"
  else Sys.argv.(1)

let base =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cgpp_spill_smoke_%d" (Unix.getpid ()))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sh cmd log =
  let full = Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote log) in
  let rc = Sys.command full in
  if rc <> 0 then begin
    (try prerr_endline (read_file log) with _ -> ());
    die "command exited %d: %s" rc cmd
  end

let parse_json path =
  match J.parse_result (read_file path) with
  | Ok v -> v
  | Error e -> die "%s: bad JSON: %s" path e

let check name b = if not b then die "%s" name

(* The sink line `cgppc run -a streambench` prints: items + checksum.
   The CLI itself fails the run when they differ from the expected
   values, so equality between legs also pins both to the truth. *)
let sink_line log =
  let contents = read_file log in
  let lines = String.split_on_char '\n' contents in
  match
    List.find_opt
      (fun l ->
        let l = String.trim l in
        String.length l >= 5 && String.sub l 0 5 = "sink:")
      (List.map String.trim lines)
  with
  | Some l -> l
  | None -> die "no sink line in %s:\n%s" log contents

(* The slow-sink cluster: a view node ~100x weaker than the data nodes,
   so items pile up at the last queue on every backend — including the
   simulator, whose spill modeling only engages at genuine bottlenecks. *)
let cluster = "2e6,2e4,5e5,0.0002"
let budget = 2048

(* The sink's site (stage 2, copy 0) slowed 200x on par and proc: every
   item then waits about 200 times what the sink spends on it, far
   longer than the source takes to make one, and the factor scales with
   whatever slows the host. *)
let sink_slowdown = function
  | "sim" -> ""
  | _ -> " --faults '2.0:slow*200'"

(* Documented high-water slack: the budget plus one segment target plus
   one item, per consumer queue; use a generous multiple of the 4 KiB
   minimum segment target for the two consumer queues. *)
let high_water_cap = budget + (2 * 16384)

let spill_dirs () =
  let tmp = Filename.get_temp_dir_name () in
  match Sys.readdir tmp with
  | entries ->
      Array.to_list entries
      |> List.filter (fun e ->
             String.length e >= 11 && String.sub e 0 11 = "cgppc-spill")
  | exception _ -> []

let run_leg backend =
  let log0 = Filename.concat base (backend ^ "-plain.log") in
  let log1 = Filename.concat base (backend ^ "-budget.log") in
  let mj = Filename.concat base (backend ^ "-budget.json") in
  let before = spill_dirs () in
  sh
    (Printf.sprintf "%s run -a streambench -c 1-1-1 -b %s --cluster %s"
       (Filename.quote cgppc) backend cluster)
    log0;
  sh
    (Printf.sprintf
       "%s run -a streambench -c 1-1-1 -b %s --cluster %s --mem-budget %d \
        --watchdog-ms 5000 --metrics-json %s%s"
       (Filename.quote cgppc) backend cluster budget (Filename.quote mj)
       (sink_slowdown backend))
    log1;
  (* identical sink multiset with and without the budget *)
  check
    (Printf.sprintf "%s: sink differs under budget (%s vs %s)" backend
       (sink_line log0) (sink_line log1))
    (sink_line log0 = sink_line log1);
  (* the memory section: budget echoed, spill engaged, high water bounded *)
  let doc = parse_json mj in
  check (backend ^ ": run not ok")
    (match J.member "ok" doc with J.Bool b -> b | _ -> false);
  let mem = J.member "memory" (J.member "runtime" doc) in
  check (backend ^ ": budget not echoed")
    (J.to_int (J.member "budget" mem) = budget);
  let spilled = J.to_int (J.member "spilled_bytes" mem) in
  let segments = J.to_int (J.member "spill_segments" mem) in
  let high = J.to_int (J.member "mem_high_water" mem) in
  check
    (Printf.sprintf "%s: no spill under a %dB budget (spilled %d)" backend
       budget spilled)
    (spilled > 0);
  check (backend ^ ": spilled bytes without segments") (segments > 0);
  check
    (Printf.sprintf "%s: mem_high_water %d exceeds budget %d + slack" backend
       high budget)
    (high <= high_water_cap);
  (* run-scoped spill directories are cleaned up on success; poll a few
     times so concurrently running spill tests can finish their own *)
  let rec leftover tries =
    let now = spill_dirs () in
    let fresh = List.filter (fun d -> not (List.mem d before)) now in
    if fresh = [] then []
    else if tries = 0 then fresh
    else begin
      Unix.sleepf 0.2;
      leftover (tries - 1)
    end
  in
  (match leftover 25 with
  | [] -> ()
  | ds -> die "%s: spill dirs left behind: %s" backend (String.concat ", " ds));
  Printf.printf "  %s: spilled %d bytes in %d segments, high water %d <= %d\n"
    backend spilled segments high high_water_cap

let () =
  J.mkdir_p base;
  let legs =
    [ "sim"; "par" ]
    @ if Datacutter.Proc_runtime.available then [ "proc" ] else []
  in
  List.iter run_leg legs;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote base)));
  Printf.printf
    "spill-smoke ok: %s budgeted runs spilled and matched unbudgeted sinks\n"
    (String.concat "/" legs)
