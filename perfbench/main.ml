(* Workload runner for the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--out DIR]
     main.exe smoke --spec BENCHMARK.json [--out DIR]

   A run prepares the workload's inputs from the seed, runs one warm-up
   repetition, then closed-loop repetitions until S seconds have passed
   (at least three), verifying the sink output of every one and sampling
   the set-up alone (setup_s) before each, and prints the end-to-end
   metrics.  With --trace 1 it first runs the layer probes, spends half
   of S on closed-loop repetitions interleaved with open-loop ones (for
   latency) and half on traced closed-loop ones, and prints the
   per-layer metrics.  It writes the last traced repetition's Chrome
   trace and every per-layer value to DIR (default .perfbench/out).
   Each metric is printed with its unit and the median, quartiles,
   minimum and sample count of its samples; the last line of standard
   output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   `smoke` runs every workload at a tiny size with both --trace values
   in fresh processes and checks the output against the metric lists
   of BENCHMARK.json, which must agree with the tables below. *)

module W = Workloads
module M = Measure
module J = Obs.Json

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* name, unit, better, regression bound (share of the parent's median) *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("e2e_s", "s", Lower, 0.25);
    ("items_per_s", "items/s", Higher, 0.25);
    ("peak_rss_mb", "MiB", Lower, 0.1);
  ]

let per_layer =
  [
    ("plan_s", "s", Lower);
    ("filter.service_us.src", "us", Lower);
    ("filter.service_us.mid", "us", Lower);
    ("filter.service_us.sink", "us", Lower);
    ("filter.bottleneck_frac", "fraction", Higher);
    ("engine.stall_pop_frac.mid", "fraction", Lower);
    ("engine.stall_pop_frac.sink", "fraction", Lower);
    ("engine.stall_push_frac.src", "fraction", Lower);
    ("engine.stall_push_frac.mid", "fraction", Lower);
    ("engine.queue_occupancy_mean.mid", "items", Lower);
    ("engine.queue_occupancy_mean.sink", "items", Lower);
    ("bqueue.push_pop_ns.b1", "ns", Lower);
    ("bqueue.push_pop_ns.b64", "ns", Lower);
    ("wire.encode_ns.b1", "ns", Lower);
    ("wire.decode_ns.b1", "ns", Lower);
    ("wire.encode_ns.b64", "ns", Lower);
    ("wire.decode_ns.b64", "ns", Lower);
    ("wire.bytes_per_item", "bytes", Lower);
    ("shm.rtt_us", "us", Lower);
    ("gc.minor_collections", "count", Lower);
    ("gc.major_collections", "count", Lower);
    ("gc.promoted_mb", "MiB", Lower);
    ("latency_p50_s", "s", Lower);
    ("latency_p95_s", "s", Lower);
    ("latency_p99_s", "s", Lower);
    ("latency_max_s", "s", Lower);
    ("gen.lag_p95_s", "s", Lower);
    ("residual_frac", "fraction", Lower);
    ("trace.overhead_frac", "fraction", Lower);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* One workload run                                                     *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : W.size;
  out : string;
}

(* A timed repetition, with the set-up samples taken just before it and
   the share of the host's CPU time stolen while both ran. *)
type timed = { rep : W.rep; setups : float list; steal : float }

(* Repetitions during which the hypervisor gave more than this share of
   the host's CPU time to other machines measure the neighbours, not the
   program; they are replaced.  On a two-core virtual machine, steal
   stayed under 0.5% for minutes, then ran near 25% for minutes, slowing
   a compile 4x. *)
let max_steal = 0.03

(* Closed-loop repetitions and, given [opened], open-loop ones
   interleaved to take about a third of the time, so that both kinds see
   the same drift of a shared host.  Runs until [seconds] have passed and
   at least [min] (and [min_open]) repetitions ran within [max_steal];
   those are the ones returned, together with every repetition
   attempted.  If one and a half times [seconds] pass first, every
   repetition is returned, which bounds the run's length. *)
let timed_reps ~setup_samples ?opened closed ~min ~min_open ~seconds =
  let t0 = M.now () in
  let clean = List.filter (fun t -> t.steal <= max_steal) in
  let min_open = if opened = None then 0 else min_open in
  let rec go cs os closed_s open_s =
    let elapsed = M.now () -. t0 in
    let enough = List.length (clean cs) >= min && List.length (clean os) >= min_open in
    let ran = cs <> [] && (os <> [] || min_open = 0) in
    if (enough && elapsed >= seconds) || (ran && elapsed >= 1.5 *. seconds) then
      let keep l = List.rev (if enough then clean l else l) in
      (keep cs, keep os, List.map (fun t -> t.rep) (cs @ os))
    else
      match opened with
      | Some o when 2.0 *. open_s < closed_s ->
          let (rep, t), steal = M.with_steal (fun () -> M.time (fun () -> W.rep o)) in
          go cs ({ rep; setups = []; steal } :: os) closed_s (open_s +. t)
      | _ ->
          let (setups, (rep, t)), steal =
            M.with_steal (fun () ->
                let setups = setup_samples () in
                (setups, M.time (fun () -> W.rep closed)))
          in
          go ({ rep; setups; steal } :: cs) os (closed_s +. t) open_s
  in
  go [] [] 0.0 0.0

(* Repetitions of [inst] until [seconds] have passed and at least [min]
   ran. *)
let reps_for ?trace_file inst ~min ~seconds =
  let t0 = M.now () in
  let rec go acc k =
    if k >= min && M.now () -. t0 >= seconds then List.rev acc
    else go (W.rep ?trace_file inst :: acc) (k + 1)
  in
  go [] 0

let ok_reps = List.filter (fun r -> r.W.failure = None)

(* Median of each per-layer key over the given repetitions. *)
let layer_medians reps =
  let keys = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.W.layers) reps) in
  List.map
    (fun k -> (k, M.median (List.filter_map (fun r -> List.assoc_opt k r.W.layers) reps)))
    keys

let print_metric name unit ~bound samples =
  let s = M.summarize samples in
  let noisy = if M.spread s > bound then "  noisy" else "" in
  Printf.printf "  %-20s %-8s median %.6g  p25 %.6g  p75 %.6g  min %.6g  n %d%s\n"
    name unit s.M.median s.M.p25 s.M.p75 s.M.min s.M.n noisy

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                metrics) );
       ])

(* Per-layer values of a traced run: probes, the traced repetitions'
   engine and filter values, the untraced ones' GC deltas, and latency
   from the open-loop repetitions. *)
let layer_values ~probes ~traced ~untraced ~opened =
  let per_item reps = List.map (fun r -> r.W.run_s /. float_of_int r.W.items) reps in
  let is_gc (k, _) = String.starts_with ~prefix:"gc." k in
  let lat = M.Lhist.merge (List.filter_map (fun r -> r.W.lat) opened) in
  let lag = M.Lhist.merge (List.filter_map (fun r -> r.W.lag) opened) in
  probes
  @ List.filter (fun kv -> not (is_gc kv)) (layer_medians traced)
  @ List.filter is_gc (layer_medians untraced)
  @ [
      ("latency_p50_s", M.Lhist.quantile lat 0.5);
      ("latency_p95_s", M.Lhist.quantile lat 0.95);
      ("latency_p99_s", M.Lhist.quantile lat 0.99);
      ("latency_max_s", M.Lhist.quantile lat 1.0);
      ("gen.lag_p95_s", M.Lhist.quantile lag 0.95);
      ("trace.overhead_frac", (M.median (per_item traced) /. M.median (per_item untraced)) -. 1.0);
    ]

let run_workload o =
  let spec =
    match W.find_spec o.size o.workload with
    | Some s -> s
    | None -> die "unknown workload %S" o.workload
  in
  let tiny = o.size = W.Tiny in
  let min_reps, min_open = if tiny then (1, 1) else (3, 2) in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n  why: %s\n%!" spec.W.name o.seed o.seconds
    o.trace spec.W.why;
  let closed = W.prepare spec ~seed:o.seed in
  let probes = if o.trace then Probes.run ~tiny (W.sample_buffer closed) else [] in
  (* Set-up samples are taken before every closed-loop repetition rather
     than all at once, so that like the other metrics they span the whole
     run instead of one moment of a host whose speed drifts.  A stream
     topology builds in well under a microsecond, so its samples are
     means of 100 builds. *)
  let per_rep, batch = match spec.W.kind with W.Iso _ -> (1, 1) | W.Flood _ -> (3, 100) in
  let setup_samples () = List.init per_rep (fun _ -> W.setup_only ~batch closed) in
  let warm = W.rep closed in
  let budget = if o.trace then o.seconds /. 2.0 else o.seconds in
  let opened = if o.trace then Some (W.variant closed ~open_:true ()) else None in
  let kept, kept_open, attempted =
    timed_reps ~setup_samples ?opened closed ~min:min_reps ~min_open ~seconds:budget
  in
  let discarded = List.length attempted - List.length kept - List.length kept_open in
  if discarded > 0 then
    Printf.printf "  %d repetitions replaced: host steal above %g%% of CPU time\n" discarded
      (100.0 *. max_steal);
  let trace_base = Filename.concat o.out (Printf.sprintf "%s-seed%d" spec.W.name o.seed) in
  let traced =
    if not o.trace then []
    else begin
      (* Tracing records a span per filter call; flood workloads trace a
         bounded prefix of their stream to keep the trace in memory. *)
      let tinst = W.variant closed ~open_:false ~items:(min closed.W.n 20_000) () in
      J.mkdir_p o.out;
      reps_for tinst ~trace_file:(trace_base ^ ".trace.json") ~min:1 ~seconds:budget
    end
  in
  let all = (warm :: attempted) @ traced in
  let failures = List.filter_map (fun r -> r.W.failure) all in
  List.iter (fun f -> Printf.printf "  FAILED rep: %s\n" f) failures;
  let good = ok_reps (List.map (fun t -> t.rep) kept) in
  let good_open = ok_reps (List.map (fun t -> t.rep) kept_open) in
  if good = [] || (o.trace && (good_open = [] || ok_reps traced = [])) then
    die "%s: no repetition succeeded" spec.W.name;
  let samples =
    [
      ("setup_s", List.concat_map (fun t -> t.setups) kept);
      ("e2e_s", List.map (fun r -> r.W.total_s) good);
      ("items_per_s", List.map (fun r -> float_of_int r.W.items /. r.W.run_s) good);
      ("peak_rss_mb", List.map (fun r -> r.W.rss_mb) good);
    ]
  in
  Printf.printf "end-to-end (%d closed-loop repetitions):\n" (List.length good);
  List.iter (fun (name, unit, _, bound) -> print_metric name unit ~bound (List.assoc name samples)) end_to_end;
  let reported =
    if not o.trace then
      List.map (fun (name, unit, _, _) -> (name, unit, M.median (List.assoc name samples))) end_to_end
    else begin
      let tgood = ok_reps traced in
      let values = layer_values ~probes ~traced:tgood ~untraced:good ~opened:good_open in
      Printf.printf "per-layer (%d traced repetitions, %d open-loop at %g/s; trace %s.trace.json):\n"
        (List.length tgood) (List.length good_open) spec.W.rate trace_base;
      List.iter (fun (k, v) -> Printf.printf "  %-34s %14.6g\n" k v) values;
      J.write_file (trace_base ^ ".layers.json")
        (J.Obj
           [
             ("workload", J.Str spec.W.name);
             ("seed", J.Int o.seed);
             ("host", M.host ());
             ( "end_to_end",
               J.Obj (List.map (fun (k, xs) -> (k, J.Float (M.median xs))) samples) );
             ("per_layer", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) values));
           ]);
      List.map
        (fun (name, unit, _) ->
          match List.assoc_opt name values with
          | Some v -> (name, unit, v)
          | None -> die "%s: per-layer metric %s was not measured" spec.W.name name)
        per_layer
    end
  in
  List.iter
    (fun (name, _, v) -> if not (Float.is_finite v) then die "%s: metric %s is not finite" spec.W.name name)
    reported;
  print_endline
    (result_line ~correct:(failures = []) ~attempted:(List.length all)
       ~failed:(List.length failures) reported)

(* ------------------------------------------------------------------ *)
(* Smoke: tiny runs of every workload checked against BENCHMARK.json   *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let smoke ~spec_path ~out =
  let fail fmt = Printf.ksprintf (fun s -> die "smoke: %s" s) fmt in
  let spec = J.parse (read_file spec_path) in
  let names key = List.map (fun m -> J.to_str (J.member "name" m)) (J.to_list (J.member key spec)) in
  let field key name f =
    match List.find_opt (fun m -> J.to_str (J.member "name" m) = name) (J.to_list (J.member key spec)) with
    | Some m -> J.member f m
    | None -> fail "%s lists no metric %s" spec_path name
  in
  if
    List.map (fun w -> (J.to_str (J.member "name" w), J.to_str (J.member "why" w))) (J.to_list (J.member "workloads" spec))
    <> List.map (fun s -> (s.W.name, s.W.why)) (W.specs W.Full)
  then fail "workloads of %s differ from the runner's" spec_path;
  if names "end_to_end" <> List.map (fun (n, _, _, _) -> n) end_to_end then
    fail "end_to_end metrics of %s differ from the runner's" spec_path;
  if names "per_layer" <> List.map (fun (n, _, _) -> n) per_layer then
    fail "per_layer metrics of %s differ from the runner's" spec_path;
  List.iter
    (fun (n, u, b, bound) ->
      if J.to_str (field "end_to_end" n "unit") <> u
         || J.to_str (field "end_to_end" n "better") <> better_name b
         || J.to_float (field "end_to_end" n "bound") <> bound
      then fail "unit, direction or bound of %s differ" n)
    end_to_end;
  List.iter
    (fun (n, u, b) ->
      if J.to_str (field "per_layer" n "unit") <> u || J.to_str (field "per_layer" n "better") <> better_name b
      then fail "unit or direction of %s differ" n)
    per_layer;
  List.iter
    (fun s ->
      List.iter
        (fun trace ->
          let args =
            [|
              Sys.executable_name; "--workload"; s.W.name; "--seed"; "7"; "--seconds"; "0";
              "--trace"; (if trace then "1" else "0"); "--size"; "tiny"; "--out"; out;
            |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let lines = In_channel.input_lines ic in
          (match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> ()
          | _ -> fail "%s trace=%b exited abnormally:\n%s" s.W.name trace (String.concat "\n" lines));
          let last = match List.rev lines with l :: _ -> l | [] -> fail "%s printed nothing" s.W.name in
          let r = J.parse last in
          let what = Printf.sprintf "%s trace=%b" s.W.name trace in
          if J.member "correct" r <> J.Bool true then fail "%s: outputs did not verify" what;
          if J.to_int (J.member "failed" r) <> 0 then fail "%s: a repetition failed" what;
          if J.to_int (J.member "attempted" r) < 1 then fail "%s: nothing attempted" what;
          let expected =
            if trace then List.map (fun (n, u, _) -> (n, u)) per_layer
            else List.map (fun (n, u, _, _) -> (n, u)) end_to_end
          in
          let got =
            match J.member "metrics" r with
            | J.Obj kv -> List.map (fun (n, m) -> (n, J.to_str (J.member "unit" m))) kv
            | _ -> fail "%s: metrics is not an object" what
          in
          if List.sort compare got <> List.sort compare expected then
            fail "%s: metric names or units differ from %s" what spec_path;
          Printf.printf "smoke: %-12s trace=%d ok (%d metrics)\n%!" s.W.name (Bool.to_int trace)
            (List.length got))
        [ false; true ])
    (W.specs W.Tiny)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec pairs = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> (k, v) :: pairs rest
    | [] -> []
    | a :: _ -> die "unexpected argument %S" a
  in
  let flag kv k ~default = Option.value ~default (List.assoc_opt k kv) in
  let int_of k s = match int_of_string_opt s with Some n -> n | None -> die "%s expects an integer" k in
  let out kv = flag kv "--out" ~default:(Filename.concat ".perfbench" "out") in
  match args with
  | "smoke" :: rest ->
      let kv = pairs rest in
      smoke ~spec_path:(flag kv "--spec" ~default:"BENCHMARK.json") ~out:(out kv)
  | _ ->
      let kv = pairs args in
      let required k = match List.assoc_opt k kv with Some v -> v | None -> die "missing %s" k in
      let o =
        {
          workload = required "--workload";
          seed = int_of "--seed" (required "--seed");
          seconds = float_of_int (int_of "--seconds" (flag kv "--seconds" ~default:"10"));
          trace =
            (match flag kv "--trace" ~default:"0" with
            | "0" -> false
            | "1" -> true
            | s -> die "--trace expects 0 or 1, not %S" s);
          size =
            (match flag kv "--size" ~default:"full" with
            | "full" -> W.Full
            | "tiny" -> W.Tiny
            | s -> die "--size expects full or tiny, not %S" s);
          out = out kv;
        }
      in
      run_workload o
