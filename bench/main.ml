(* Benchmark harness: regenerates every result figure of the paper's
   evaluation (§6, Figures 5-12) plus three ablations, on the simulated
   cluster, and measures the real backends.  Run `dune exec
   bench/main.exe` for everything, or pass a subset of targets:

     fig5 fig6    isosurface z-buffer, small / large dataset
     fig7 fig8    isosurface active pixels, small / large dataset
     fig9 fig10   k-nearest neighbours, k = 3 / k = 200
     fig11 fig12  virtual microscope, small / large query
     ablation_dp       decomposition algorithms (Fig. 3 DP, bottleneck
                       search, brute force) on the real app profiles
     ablation_packing  instance-wise vs field-wise buffer layouts (§5)
     ablation_packet   packet-size sweep (§8 future work)
     transport         streambench batch sweep on sim / par / proc, and
                       the proc shm credit window (inflight) x batch grid
     outofcore         file-backed streambench: items/s vs size vs budget
     adaptive          a deliberately misplanned plan vs its metrics replan
     transport_smoke   a tiny transport sweep asserting batch histograms
                       (the @perf-smoke rule)
     interp            the sequential executor: minor and promoted words,
                       collections and wall time of five reference runs
                       of the iso large dataset (prints only)
     smoke             one tiny figure cell, parsed back and validated
                       (the @bench-smoke rule)

   Simulated times are seconds on the substitute cluster and are not
   meant to match the paper's testbed; the comparisons (who wins, by how
   much, how speedups scale with pipeline width) are the result.  Every
   par and proc cell is measured: one warm-up, then Schema.reps
   repetitions, each in a fresh forked child, recorded as median, IQR
   and n.  The bench process itself never spawns a domain, so it can
   fork for any target in any order. *)

open Core
module H = Apps.Harness
module J = Obs.Json

let cluster = H.default_cluster

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                             *)
(* ------------------------------------------------------------------ *)

(* Every figure's cells are also recorded as JSON rows and written to
   bench/results/BENCH_<target>.json (override the directory with
   BENCH_OUT_DIR), so the perf trajectory of the repo is a diffable
   artifact rather than scrollback.  Schema describes the file. *)
module Record = struct
  let out_dir () =
    match Sys.getenv_opt "BENCH_OUT_DIR" with
    | Some d -> d
    | None -> Filename.concat "bench" "results"

  let title = ref ""
  let rows : J.t list ref = ref []

  (* set when a leg of the current target could not run *)
  let failed = ref false

  let start t =
    title := t;
    rows := [];
    failed := false

  let nproc = Domain.recommended_domain_count ()

  (* The machine the numbers were measured on: perfbench's host facts
     plus the commit, "unknown" outside a git checkout. *)
  let host =
    lazy
      (let commit =
         match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
         | exception Unix.Unix_error _ -> "unknown"
         | ic -> (
             let line = try input_line ic with End_of_file -> "" in
             match Unix.close_process_in ic with
             | Unix.WEXITED 0 when line <> "" -> line
             | _ -> "unknown")
       in
       match Measure.host () with
       | J.Obj kv -> J.Obj (kv @ [ ("commit", J.Str commit) ])
       | h -> h)

  (* one table row: the schema version, the config label, optional
     string tags (e.g. the "backend" discriminator), named numeric
     cells, the measured cells (median, "_iqr", and one "n"), whether
     the row's [copies] filter copies outnumber this host's cores, and
     the error of a leg that could not run *)
  let row ?(tags = []) ?(measured = []) ?(copies = 0) ?error label cells =
    let stats =
      match measured with
      | [] -> []
      | (_, (s : Measure.summary)) :: _ ->
          List.concat_map
            (fun (k, (s : Measure.summary)) ->
              [ (k, J.Float s.median); (k ^ "_iqr", J.Float (s.p75 -. s.p25)) ])
            measured
          @ [ ("n", J.Int s.n); ("oversubscribed", J.Bool (copies > nproc)) ]
    in
    rows :=
      J.Obj
        (("schema_version", J.Int Obs.Metrics.schema_version)
         :: ("config", J.Str label)
         :: List.map (fun (k, v) -> (k, J.Str v)) tags
        @ List.map (fun (k, v) -> (k, J.Float v)) cells
        @ stats
        @ match error with None -> [] | Some e -> [ ("error", J.Str e) ])
      :: !rows

  (* A leg that could not run is recorded, not dropped: a row with an
     "error" field, and the target exits non-zero. *)
  let failed_leg ~backend label msg =
    failed := true;
    Fmt.pr "%-8s %s leg failed: %s@." label backend msg;
    row ~tags:[ ("backend", backend) ] ~error:msg label []

  let path_of target =
    Filename.concat (out_dir ()) ("BENCH_" ^ target ^ ".json")

  (* Refuse to clobber a result file with one that is not comparable: a
     partial or truncated rerun with fewer rows, or a run on a host with
     another core count or OCaml version.  BENCH_FORCE=1 overrides. *)
  let check_overwrite path =
    if Sys.getenv_opt "BENCH_FORCE" <> Some "1" && Sys.file_exists path then
      match J.parse (In_channel.with_open_text path In_channel.input_all) with
      | exception (J.Parse_error _ | Sys_error _) -> ()
      | old ->
          let refuse why =
            Fmt.failwith
              "refusing to overwrite %s: %s (set BENCH_FORCE=1 to overwrite \
               anyway)"
              path why
          in
          let old_rows =
            match J.member_opt "rows" old with
            | Some (J.List l) -> List.length l
            | _ -> 0
          in
          if old_rows > List.length !rows then
            refuse
              (Fmt.str "it holds %d rows, this run produced only %d" old_rows
                 (List.length !rows));
          List.iter
            (fun k ->
              let old_k = Option.bind (J.member_opt "host" old) (J.member_opt k) in
              if old_k <> J.member_opt k (Lazy.force host) then
                refuse (Fmt.str "it was measured with another host %s" k))
            [ "nproc"; "ocaml" ]

  let write target =
    let path = path_of target in
    check_overwrite path;
    J.write_file path
      (J.Obj
         [
           ("target", J.Str target);
           ("title", J.Str !title);
           ("host", Lazy.force host);
           ("rows", J.List (List.rev !rows));
         ]);
    Fmt.pr "  results -> %s@." path
end

(* ------------------------------------------------------------------ *)
(* Table rendering                                                      *)
(* ------------------------------------------------------------------ *)

let print_header title columns =
  Fmt.pr "@.== %s ==@." title;
  Record.start title;
  Fmt.pr "%-8s" "config";
  List.iter (fun c -> Fmt.pr " %14s" c) columns;
  Fmt.pr "@."

let print_row label cells =
  Fmt.pr "%-8s" label;
  List.iter (fun c -> Fmt.pr " %14s" c) cells;
  Fmt.pr "@."

let pct_faster ~default ~decomp = (default -. decomp) /. decomp *. 100.0

(* Unwrap a harness/runtime result, rendering a failure readably. *)
let cell = function
  | Ok v -> v
  | Error e -> Fmt.failwith "run failed: %a" Datacutter.Supervisor.pp_run_error e

(* ------------------------------------------------------------------ *)
(* Measured legs                                                        *)
(* ------------------------------------------------------------------ *)

(* One par or proc cell: a warm-up, then [Schema.reps] repetitions,
   each in a fresh forked child — OCaml 5 refuses fork once a domain
   exists, so the bench process never runs a par leg itself.  [f]
   returns one run's wall-clock seconds and whatever else the caller
   records; the repetitions come back in order.  A leg that fails is
   recorded as an error row and yields [None]. *)
let measure ~backend label f =
  let rec reps n acc =
    if n = 0 then Ok (List.rev acc)
    else Result.bind (Measure.in_child f) (fun r -> reps (n - 1) (r :: acc))
  in
  match Result.bind (Measure.in_child f) (fun _warm_up -> reps Schema.reps []) with
  | Ok runs -> Some runs
  | Error msg ->
      Record.failed_leg ~backend:(Datacutter.Runtime.backend_name backend) label msg;
      None

(* A cell on [backend]: one in-process run on the deterministic
   simulator, a measured leg on the wall-clock backends. *)
let run_on ~backend label f =
  if backend = Datacutter.Runtime.Sim then Some [ f () ] else measure ~backend label f

(* Every figure row re-runs its Decomp cell on the measured backends
   and records their median wall-clock seconds plus the
   measured/simulated ratio ("drift") — per-backend baselines for every
   figure.  Set BENCH_DRIFT=0 to skip the measured legs entirely
   (sim-only, fast). *)
let drift_enabled () = Sys.getenv_opt "BENCH_DRIFT" <> Some "0"

(* The measured legs of one Decomp cell, by backend name. *)
let wall_legs ~label ~widths app =
  if not (drift_enabled ()) then []
  else
    List.filter_map
      (fun backend ->
        measure ~backend label (fun () ->
            let t, _, _, _ =
              cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~backend ~widths app)
            in
            (t, ()))
        |> Option.map (fun runs ->
               ( Datacutter.Runtime.backend_name backend,
                 Measure.summarize (List.map fst runs) )))
      [ Datacutter.Runtime.Par; Datacutter.Runtime.Proc ]

let wall_cells legs = List.map (fun (b, s) -> (b ^ "_wall_s", s)) legs

let drift_cells ~sim_s legs =
  List.map (fun (b, (s : Measure.summary)) -> (b ^ "_drift", s.median /. sim_s)) legs

let drift_strs ~sim_s legs =
  List.map
    (fun b ->
      match List.assoc_opt b legs with
      | Some (s : Measure.summary) -> Fmt.str "%.1f" (s.median /. sim_s)
      | None -> "-")
    [ "par"; "proc" ]

let copies widths = Array.fold_left ( + ) 0 widths

(* ------------------------------------------------------------------ *)
(* Figures 5-12: Default vs the compiler's decomposition                *)
(* ------------------------------------------------------------------ *)

(* A figure is data: the app, the name of the compiler's decomposition
   column ("Decomp" vs the paper's "Comp" where a hand-written
   Decomp-Manual pipeline exists), and that manual topology for given
   widths.  With a manual pipeline the last column compares against it;
   without one it is the decomposition's speedup over 1-1-1. *)
type figure = {
  title : string;
  app : H.app;
  decomp : string;
  manual : (int array -> Datacutter.Topology.t) option;
}

let figure f =
  let key = String.lowercase_ascii f.decomp ^ "_s" in
  print_header f.title
    ([ "Default(s)"; f.decomp ^ "(s)" ]
    @ (match f.manual with
      | Some _ -> [ "Manual(s)"; "improv(%)"; "comp/man" ]
      | None -> [ "improv(%)"; "speedup(D)" ])
    @ [ "par(x)"; "proc(x)" ]);
  let base = ref 0.0 in
  List.iter
    (fun (label, widths) ->
      let sim strategy =
        let t, _, _, _ = cell (H.run_cell ~cluster ~strategy ~widths f.app) in
        t
      in
      let t_def = sim Compile.Default and t_dec = sim Compile.Decomp in
      if label = "1-1-1" then base := t_dec;
      (* (key, value, printed decimals) *)
      let improv = ("improv_pct", pct_faster ~default:t_def ~decomp:t_dec, 1) in
      let shown =
        [ ("default_s", t_def, 4); (key, t_dec, 4) ]
        @
        match f.manual with
        | Some topo ->
            let t_man =
              (cell (Datacutter.Runtime.run_result (topo widths))).Datacutter.Engine.elapsed_s
            in
            [ ("manual_s", t_man, 4); improv; ("comp_over_manual", t_dec /. t_man, 2) ]
        | None -> [ improv; ("speedup", !base /. t_dec, 2) ]
      in
      let legs = wall_legs ~label ~widths f.app in
      Record.row ~tags:[ ("backend", "sim") ] ~measured:(wall_cells legs)
        ~copies:(copies widths) label
        (List.map (fun (k, v, _) -> (k, v)) shown @ drift_cells ~sim_s:t_dec legs);
      print_row label
        (List.map (fun (_, v, d) -> Printf.sprintf "%.*f" d v) shown
        @ drift_strs ~sim_s:t_dec legs))
    H.configurations

(* The Decomp-Manual pipeline of knn or vmscope at [widths] on the
   simulated cluster. *)
let manual
    (topology :
      widths:int array ->
      powers:float array ->
      bandwidths:float array ->
      ?latency:float ->
      unit ->
      Datacutter.Topology.t * _) widths =
  fst
    (topology ~widths ~powers:(H.node_powers cluster widths)
       ~bandwidths:(Array.make 2 cluster.H.bandwidth) ~latency:cluster.H.latency ())

let iso title variant cfg =
  figure { title; app = H.iso_app ~variant cfg; decomp = "Decomp"; manual = None }

let knn title cfg =
  let manual = Some (manual (Apps.Knn.manual_topology cfg)) in
  figure { title; app = H.knn_app cfg; decomp = "Comp"; manual }

let vmscope title cfg =
  let manual = Some (manual (Apps.Vmscope.manual_topology cfg)) in
  figure { title; app = H.vmscope_app cfg; decomp = "Comp"; manual }

(* ------------------------------------------------------------------ *)
(* Ablation: decomposition algorithms (§4.4)                            *)
(* ------------------------------------------------------------------ *)

(* wall-clock of [f] amortized over enough calls to be measurable *)
let solve_time f =
  let calls = 200 in
  let (), t =
    Measure.time (fun () ->
        for _ = 1 to calls do
          ignore (f ())
        done)
  in
  t /. float_of_int calls

let ablation_dp () =
  print_header "Ablation: decomposition algorithms (width 1-1-1 profiles)"
    [ "DP-lat(s)"; "bneck(s)"; "brute(s)"; "bneck=brute"; "tDP(us)"; "tbrute(us)" ];
  let apps =
    [
      ("knn3", H.knn_app (Apps.Knn.with_k 3));
      ("vms-L", H.vmscope_app Apps.Vmscope.large_query);
      ("zbuf-S", H.iso_app ~variant:`Zbuffer Apps.Isosurface.small);
      ("apix-S", H.iso_app ~variant:`Apix Apps.Isosurface.small);
    ]
  in
  List.iter
    (fun (label, app) ->
      let c = H.compile ~cluster ~widths:[| 1; 1; 1 |] app in
      let profile = c.Compile.profile.Profile.profile in
      let cons = c.Compile.constraints in
      let pipeline = c.Compile.pipeline in
      let dp = Decompose.dp ~cons pipeline profile in
      let bn = Decompose.bottleneck ~cons pipeline profile in
      let bf = Decompose.brute_force ~cons ~objective:`Total pipeline profile in
      let t_dp = solve_time (fun () -> Decompose.dp ~cons pipeline profile) in
      let t_bf =
        solve_time (fun () ->
            Decompose.brute_force ~cons ~objective:`Total pipeline profile)
      in
      Record.row ~tags:[ ("backend", "sim") ] label
        [
          ("dp_total_s", dp.Decompose.total);
          ("bneck_total_s", bn.Decompose.total);
          ("brute_total_s", bf.Decompose.total);
          ("t_dp_us", t_dp *. 1e6);
          ("t_brute_us", t_bf *. 1e6);
        ];
      print_row label
        [
          Fmt.str "%.4f" dp.Decompose.total;
          Fmt.str "%.4f" bn.Decompose.total;
          Fmt.str "%.4f" bf.Decompose.total;
          (if abs_float (bn.Decompose.total -. bf.Decompose.total) < 1e-9 then
             "yes"
           else "no");
          Fmt.str "%.1f" (t_dp *. 1e6);
          Fmt.str "%.1f" (t_bf *. 1e6);
        ])
    apps;
  (* the asymptotic gap only shows at larger n and m *)
  Fmt.pr "@.synthetic scaling (random profile):@.";
  print_row "" [ "n+1"; "m"; ""; ""; "tDP(us)"; "tbrute(us)" ];
  List.iter
    (fun (n1, m) ->
      let st = Random.State.make [| n1 * 31 + m |] in
      let task = Array.init n1 (fun _ -> 1.0 +. Random.State.float st 100.0) in
      let vol = Array.init n1 (fun _ -> Random.State.float st 200.0) in
      let profile = { Costmodel.task; vol_out = vol; packets = 50 } in
      let pipeline = Costmodel.uniform ~m ~power:100.0 ~bandwidth:100.0 () in
      let t_dp = solve_time (fun () -> Decompose.dp pipeline profile) in
      let t_bf =
        solve_time (fun () ->
            Decompose.brute_force ~objective:`Total pipeline profile)
      in
      Record.row ~tags:[ ("backend", "host") ]
        (Printf.sprintf "n%d-m%d" n1 m)
        [ ("t_dp_us", t_dp *. 1e6); ("t_brute_us", t_bf *. 1e6) ];
      print_row ""
        [
          string_of_int n1;
          string_of_int m;
          "";
          "";
          Fmt.str "%.1f" (t_dp *. 1e6);
          Fmt.str "%.1f" (t_bf *. 1e6);
        ])
    [ (8, 4); (12, 5); (16, 6) ]

(* ------------------------------------------------------------------ *)
(* Ablation: packing layouts (§5)                                       *)
(* ------------------------------------------------------------------ *)

(* The §5 scenario where the layouts differ: a middle filter consumes one
   field of the stream and forwards eight others to the last filter.
   With the automatic (or field-wise) layout the forwarded fields are
   contiguous columns the middle filter can bulk-copy; forcing
   instance-wise interleaves them with the consumed field and the middle
   filter must gather element by element. *)
let passthrough_source =
  {|
class T {
  float a1;
  float a2;
  float b0; float b1; float b2; float b3;
  float b4; float b5; float b6; float b7;
}
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
R acc1 = new R();
R acc2 = new R();
R acc3 = new R();
pipelined (p in [0 : runtime_define num_packets]) {
  List<T> ts = read_ts(p);
  R m1 = new R();
  foreach (t in ts) {
    m1.x += t.a1 * t.a1;
  }
  acc1.merge(m1);
  R m2 = new R();
  foreach (t in ts) {
    m2.x += t.a2 * t.a2;
  }
  acc2.merge(m2);
  R m3 = new R();
  foreach (t in ts) {
    m3.x += t.b0 + t.b1 + t.b2 + t.b3 + t.b4 + t.b5 + t.b6 + t.b7;
  }
  acc3.merge(m3);
}
|}

let passthrough_app : H.app =
  let module V = Lang.Value in
  let read_ts : string * Lang.Interp.extern_fn =
    ( "read_ts",
      fun ctx args ->
        let p = V.as_int (List.hd args) in
        let t = Lang.Interp.class_decl ctx "T" in
        let make = V.maker t and slot = V.float_slot t in
        let a1 = slot "a1" and a2 = slot "a2" in
        let bs = Array.init 8 (fun b -> slot (Printf.sprintf "b%d" b)) in
        let vec = V.Vec.create () in
        for i = 0 to 1999 do
          let o = make () in
          let base = Apps.Prng.hash_float 11 ((p * 2000) + i) in
          o.V.floats.(a1) <- base;
          o.V.floats.(a2) <- base *. 0.5;
          Array.iteri (fun b s -> o.V.floats.(s) <- base +. float_of_int b) bs;
          V.Vec.push vec (V.Vobject o)
        done;
        ctx.Lang.Interp.counter.Lang.Opcount.mem_ops <-
          ctx.Lang.Interp.counter.Lang.Opcount.mem_ops + (2000 * 18);
        V.Vlist vec )
  in
  {
    H.name = "passthrough";
    source = passthrough_source;
    externs_sig =
      [
        Lang.Typecheck.
          {
            ex_name = "read_ts";
            ex_params = [ Lang.Ast.Tint ];
            ex_ret = Lang.Ast.Tlist (Lang.Ast.Tclass "T");
          };
      ];
    externs = [ read_ts ];
    runtime_defs = [];
    num_packets = 16;
    source_externs = [ "read_ts" ];
  }

(* fixed 4-unit decomposition: read | consume a1 | consume a2 (b*
   columns pass through) | consume b* *)
let passthrough_assignment = [| 1; 2; 2; 3; 3; 4; 4 |]

let ablation_packing () =
  print_header "Ablation: buffer layouts (1-1-1)"
    [ "auto(s)"; "instance(s)"; "fieldwise(s)" ];
  (* marshalling is a CPU cost: measure the passthrough program on a
     fast network so the link does not mask it *)
  let fast = { cluster with H.bandwidth = 2e7 } in
  let apps =
    [
      ("passthru", passthrough_app, Compile.Fixed passthrough_assignment, fast);
      ("knn200", H.knn_app (Apps.Knn.with_k 200), Compile.Decomp, cluster);
      ("vms-L", H.vmscope_app Apps.Vmscope.large_query, Compile.Decomp, cluster);
      ("zbuf-S", H.iso_app ~variant:`Zbuffer Apps.Isosurface.small, Compile.Decomp, cluster);
    ]
  in
  List.iter
    (fun (label, app, strategy, cluster) ->
      let widths =
        match strategy with
        | Compile.Fixed a -> Array.make (Array.fold_left max 1 a) 1
        | _ -> [| 1; 1; 1 |]
      in
      let run mode =
        let t, _, _, _ = cell (H.run_cell ~cluster ~strategy ~layout_mode:mode ~widths app) in
        t
      in
      let t_auto = run `Auto in
      let t_inst = run `All_instance in
      let t_field = run `All_fieldwise in
      Record.row ~tags:[ ("backend", "sim") ] label
        [
          ("auto_s", t_auto);
          ("instance_s", t_inst);
          ("fieldwise_s", t_field);
        ];
      print_row label
        [
          Fmt.str "%.4f" t_auto;
          Fmt.str "%.4f" t_inst;
          Fmt.str "%.4f" t_field;
        ])
    apps

(* ------------------------------------------------------------------ *)
(* Ablation: packet count (§8 "automatically choosing the packet size") *)
(* ------------------------------------------------------------------ *)

let ablation_packet () =
  print_header "Ablation: knn k=3 packet-count sweep (2-2-1, Decomp)"
    [ "packets"; "makespan(s)" ];
  List.iter
    (fun packets ->
      let cfg = { (Apps.Knn.with_k 3) with Apps.Knn.num_packets = packets } in
      let app = H.knn_app cfg in
      let t, _, _, _ =
        cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~widths:[| 2; 2; 1 |] app)
      in
      Record.row ~tags:[ ("backend", "sim") ] (string_of_int packets)
        [ ("makespan_s", t) ];
      print_row "" [ string_of_int packets; Fmt.str "%.4f" t ])
    [ 4; 8; 16; 24; 48; 96 ]

(* ------------------------------------------------------------------ *)
(* Streambench rows                                                     *)
(* ------------------------------------------------------------------ *)

(* Record a streambench row from the runs of one cell, each returning
   its elapsed seconds first: elapsed and items/s are plain values for
   one run on the deterministic simulator, medians over a measured leg
   otherwise. *)
let stream_row ~backend ~items ~widths label cells runs =
  let times = List.map fst runs in
  let timed =
    [
      ("elapsed_s", Measure.summarize times);
      ("items_per_s", Measure.summarize (List.map (fun t -> items /. t) times));
    ]
  in
  let tags = [ ("backend", Datacutter.Runtime.backend_name backend) ] in
  if backend = Datacutter.Runtime.Sim then
    Record.row ~tags label
      (cells @ List.map (fun (k, (s : Measure.summary)) -> (k, s.median)) timed)
  else Record.row ~tags ~measured:timed ~copies:(copies widths) label cells

(* ------------------------------------------------------------------ *)
(* Transport: streambench batch cap x backend x shm credit window       *)
(* ------------------------------------------------------------------ *)

(* The workload where per-item overhead dominates by construction
   (Streambench: many small buffers through a pass-through stage),
   swept over the engine's batch cap on every backend and, on proc,
   over the shm credit window (inflight).  Sim rows are simulated
   seconds (the modeled startup-once-per-batch transfer cost); par and
   proc rows are wall clock, so items/s at B>1 vs B=1 is the measured
   amortization of locks, wakeups and wire frames, and vs_w1 (items/s
   against inflight=1 at the same batch) isolates what credit-based
   pipelining buys.  Ring slots are planner-sized from the batch plan
   ({!Datacutter.Plan}) so the overflow column stays
   at zero even for B=512 frames.  Returns every leg's backend, batch
   and the metrics JSON of its first run. *)
let transport_sweep ~title ~cfg ~batches ~inflights =
  print_header title
    [ "batch"; "inflight"; "elapsed(s)"; "items/s"; "overflow"; "stall(s)"; "vs w=1" ];
  let widths = [| 1; 1; 1 |] in
  let powers = H.node_powers cluster widths in
  let bandwidths = Array.make 2 cluster.H.bandwidth in
  let expected = Apps.Streambench.expected cfg in
  let items = float_of_int cfg.Apps.Streambench.items in
  let run backend ~b ?inflight () =
    let topo, results =
      Apps.Streambench.topology cfg ~widths ~powers ~bandwidths
        ~latency:cluster.H.latency ()
    in
    let m =
      cell
        (H.run_plan ~backend
           (H.plan_of_profile ~batch:b ?inflight
              (Apps.Streambench.profile cfg) ~assignment:[| 1; 2; 3 |] ~cluster
              ~widths)
           topo)
    in
    if results () <> expected then
      Fmt.failwith "transport %s B=%d: sink multiset diverged"
        (Datacutter.Runtime.backend_name backend)
        b;
    (m.Datacutter.Engine.elapsed_s, Datacutter.Runtime.metrics_to_json m)
  in
  (* a proc run's transport counter, 0 where the section is absent *)
  let stat key doc =
    Option.fold ~none:0.0 ~some:J.to_float
      (Option.bind (J.member_opt "transport" doc) (J.member_opt key))
  in
  List.concat_map
    (fun (backend, windows) ->
      let name = Datacutter.Runtime.backend_name backend in
      List.concat_map
        (fun b ->
          let t_w1 = ref None in
          List.filter_map
            (fun inflight ->
              let label =
                match inflight with
                | None -> Printf.sprintf "B=%d" b
                | Some w -> Printf.sprintf "B=%d/w=%d" b w
              in
              run_on ~backend label (run backend ~b ?inflight)
              |> Option.map (fun runs ->
                     let docs = List.map snd runs in
                     let t = Measure.median (List.map fst runs) in
                     let proc_cells =
                       match inflight with
                       | None -> []
                       | Some w ->
                           if w = 1 then t_w1 := Some t;
                           [
                             ("inflight", float_of_int w);
                             ( "overflow_frames",
                               List.fold_left Float.max 0.0
                                 (List.map (stat "overflow_frames") docs) );
                             ( "credit_stall_s",
                               Measure.median (List.map (stat "credit_stall_s") docs) );
                           ]
                           @ Option.fold ~none:[] ~some:(fun t1 -> [ ("vs_w1", t1 /. t) ]) !t_w1
                     in
                     stream_row ~backend ~items ~widths label
                       (("batch", float_of_int b) :: proc_cells)
                       runs;
                     let shown k fmt =
                       match List.assoc_opt k proc_cells with
                       | Some v -> Printf.sprintf fmt v
                       | None -> "-"
                     in
                     print_row name
                       [
                         string_of_int b;
                         shown "inflight" "%.0f";
                         Fmt.str "%.4f" t;
                         Fmt.str "%.0f" (items /. t);
                         shown "overflow_frames" "%.0f";
                         shown "credit_stall_s" "%.3f";
                         shown "vs_w1" "%.2f";
                       ];
                     (name, b, List.hd docs)))
            windows)
        batches)
    [
      (Datacutter.Runtime.Sim, [ None ]);
      (Datacutter.Runtime.Par, [ None ]);
      (Datacutter.Runtime.Proc, List.map Option.some inflights);
    ]

let transport () =
  let cfg = Apps.Streambench.default in
  ignore
    (transport_sweep
       ~title:
         (Printf.sprintf "Transport: streambench %d items x %d bytes, 1-1-1"
            cfg.Apps.Streambench.items cfg.Apps.Streambench.item_bytes)
       ~cfg ~batches:[ 1; 64; 512 ] ~inflights:[ 1; 4; 16 ])

(* Tiny sweep for @perf-smoke: every backend at B=1 and B=8 (proc at
   the default window, 4), then assert the runtime metrics JSON of every
   batched leg carries batch-size histograms (and that some batch
   actually formed). *)
let transport_smoke () =
  let legs =
    transport_sweep ~title:"Perf smoke: streambench tiny, 1-1-1"
      ~cfg:Apps.Streambench.tiny ~batches:[ 1; 8 ]
      ~inflights:[ 4 ]
  in
  let check what cond =
    if not cond then begin
      Fmt.epr "perf smoke: %s does not hold@." what;
      exit 1
    end
  in
  List.iter
    (fun name ->
      check (Fmt.str "a %s leg ran" name) (List.exists (fun (n, _, _) -> n = name) legs))
    [ "sim"; "par"; "proc" ];
  check "every recorded row carries the schema version"
    (List.for_all
       (fun row ->
         match J.member "schema_version" row with
         | J.Int v -> v = Obs.Metrics.schema_version
         | _ -> false)
       !Record.rows);
  List.iter
    (fun (name, b, doc) ->
      if b > 1 then begin
        let ctx what = Printf.sprintf "%s (%s B=%d)" what name b in
        check (ctx "batch plan in metrics JSON")
          (match J.member "batch" doc with
          | J.List (_ :: _) -> true
          | _ -> false);
        let stages = J.to_list (J.member "stages" doc) in
        let hists =
          List.concat_map (fun s -> J.to_list (J.member "batch_out" s)) stages
        in
        check (ctx "per-stage batch_out histograms") (hists <> []);
        check (ctx "some flushed batch holds > 1 item")
          (List.exists
             (fun h ->
               match J.member "max" h with J.Float f -> f > 1.0 | _ -> false)
             hists)
      end)
    legs;
  Fmt.pr "perf smoke: batched legs carry batch-size histograms@."

(* ------------------------------------------------------------------ *)
(* Out-of-core: file-backed streambench, items/s vs dataset size vs
   memory budget.  Sources stream a write-once dataset cache file in
   chunks (Apps.Dataset) and the queues run under --mem-budget-style
   byte budgets, spilling to disk instead of blocking — so the 100x
   stream completes on every backend with the exact inline checksum.   *)
(* ------------------------------------------------------------------ *)

let outofcore () =
  print_header
    "Out-of-core: streambench file-backed 1-1-1 (items/s vs size vs budget)"
    [ "items"; "budget(B)"; "elapsed(s)"; "items/s"; "spilled(B)" ];
  let widths = [| 1; 1; 1 |] in
  let powers = H.node_powers cluster widths in
  let bandwidths = Array.make 2 cluster.H.bandwidth in
  let factors = [ 1; 10; 100 ] in
  let budgets = [ Some 16_384; Some 262_144; None ] in
  let run backend cfg ds expected budget () =
    let topo, results =
      Apps.Streambench.topology cfg ~dataset:ds ~widths ~powers ~bandwidths
        ~latency:cluster.H.latency ()
    in
    let m = cell (Datacutter.Runtime.run_result ~backend ?mem_budget:budget topo) in
    if results () <> expected then
      Fmt.failwith "outofcore %s: sink multiset diverged at %d items"
        (Datacutter.Runtime.backend_name backend)
        cfg.Apps.Streambench.items;
    ( m.Datacutter.Engine.elapsed_s,
      (float_of_int m.Datacutter.Engine.spilled_bytes,
       float_of_int m.Datacutter.Engine.mem_high_water) )
  in
  List.iter
    (fun backend ->
      let name = Datacutter.Runtime.backend_name backend in
      List.iter
        (fun factor ->
          (* the per-item wire cost dominates proc; keep its column to
             the sizes it finishes in seconds and say so *)
          if backend = Datacutter.Runtime.Proc && factor > 10 then
            Fmt.pr "%-8s x%-4d skipped: wire cost dominates at this size@."
              name factor
          else begin
            let cfg = Apps.Streambench.scaled Apps.Streambench.tiny factor in
            let ds = Apps.Streambench.dataset cfg in
            let expected = Apps.Streambench.expected cfg in
            let items = cfg.Apps.Streambench.items in
            List.iter
              (fun budget ->
                let blab =
                  match budget with None -> "inf" | Some b -> string_of_int b
                in
                let label = Printf.sprintf "x%d/%s" factor blab in
                run_on ~backend label (run backend cfg ds expected budget)
                |> Option.iter (fun runs ->
                       (* spilling depends on timing on the wall-clock
                          backends: the median run's bytes *)
                       let spilled = Measure.median (List.map (fun (_, (s, _)) -> s) runs) in
                       let t = Measure.median (List.map fst runs) in
                       stream_row ~backend ~items:(float_of_int items) ~widths label
                         [
                           ("factor", float_of_int factor);
                           ("items", float_of_int items);
                           ("dataset_bytes", float_of_int (Apps.Dataset.size_bytes ds));
                           ( "mem_budget",
                             match budget with None -> 0.0 | Some b -> float_of_int b );
                           ("spilled_bytes", spilled);
                           ( "mem_high_water",
                             Measure.median (List.map (fun (_, (_, h)) -> h) runs) );
                         ]
                         runs;
                       print_row
                         (name ^ if budget = None then "" else "*")
                         [
                           string_of_int items;
                           blab;
                           Fmt.str "%.4f" t;
                           Fmt.str "%.0f" (float_of_int items /. t);
                           Fmt.str "%.0f" spilled;
                         ]))
              budgets
          end)
        factors)
    [ Datacutter.Runtime.Proc; Datacutter.Runtime.Sim; Datacutter.Runtime.Par ]

(* ------------------------------------------------------------------ *)
(* Adaptive: a deliberately misplanned plan against its metrics replan.
   The misplanned streambench gives the latency-bound middle stage one
   copy, and the phased one waits only in the second half of the
   stream; on par and proc the static leg pays for the missing copies,
   and the replanned leg derives them from the static run's measured
   metrics (the --replan-from path).                                   *)
(* ------------------------------------------------------------------ *)

let adaptive () =
  print_header "Adaptive: misplanned streambench 1-1-1 (static vs replan)"
    [ "elapsed(s)"; "items/s"; "vs static" ];
  (* 4x the stream, queues capped at 32 items: both apply to every leg
     alike. *)
  let queue_capacity = 32 in
  let base_widths = [| 1; 1; 1 |] in
  let workload (name, base) backend =
    let cfg = Apps.Streambench.scaled base 4 in
    let items = float_of_int cfg.Apps.Streambench.items in
    let bname = Datacutter.Runtime.backend_name backend in
    let tags = [ ("backend", bname); ("workload", name) ] in
    (* a measured leg; each run also returns its metrics JSON *)
    let leg label widths =
      measure ~backend label (fun () ->
          let topo, results =
            Apps.Streambench.topology cfg ~widths
              ~powers:(H.node_powers cluster widths)
              ~bandwidths:(Array.make 2 cluster.H.bandwidth)
              ~latency:cluster.H.latency ()
          in
          let m =
            cell (Datacutter.Runtime.run_result ~backend ~queue_capacity topo)
          in
          if results () <> Apps.Streambench.expected cfg then
            Fmt.failwith "adaptive %s %s: sink multiset diverged" name bname;
          (m.Datacutter.Engine.elapsed_s, Datacutter.Runtime.metrics_to_json m))
    in
    Option.iter
      (fun static_runs ->
        let static_rate = items /. Measure.median (List.map fst static_runs) in
        (* record one leg's row against the static leg *)
        let record label widths runs extra =
          let t = Measure.median (List.map fst runs) in
          let rate = items /. t in
          Record.row ~tags
            ~measured:
              [
                ("elapsed_s", Measure.summarize (List.map fst runs));
                ( "items_per_s",
                  Measure.summarize (List.map (fun (t, _) -> items /. t) runs) );
              ]
            ~copies:(copies widths) label
            (("vs_static", rate /. static_rate) :: extra);
          print_row
            (Fmt.str "%s %s %s" name bname label)
            [ Fmt.str "%.4f" t; Fmt.str "%.0f" rate; Fmt.str "%.2f" (rate /. static_rate) ]
        in
        record "static" base_widths static_runs [];
        (* the replanned leg: feed the median static run's measured
           metrics back through the planner and run the result
           statically *)
        let _, static_json =
          List.nth
            (List.sort (fun (a, _) (b, _) -> Float.compare a b) static_runs)
            (List.length static_runs / 2)
        in
        let widths =
          match Replan.of_json static_json with
          | Ok t -> (Replan.plan ~budget:Replan.default_budget t).Replan.pl_plan.widths
          | Error msg -> Fmt.failwith "adaptive: replan rejected the metrics: %s" msg
        in
        Option.iter
          (fun runs ->
            record "replan" widths runs
              [ ("replan_mid_width", float_of_int widths.(1)) ])
          (leg "replan" widths))
      (leg "static" base_widths)
  in
  List.iter
    (fun w ->
      List.iter (workload w) [ Datacutter.Runtime.Par; Datacutter.Runtime.Proc ])
    [
      ("misplanned", Apps.Streambench.misplanned);
      ("phased", Apps.Streambench.phased);
    ]

(* ------------------------------------------------------------------ *)
(* Smoke cell for @bench-smoke: one tiny figure cell, recorded through
   the same Record path as the real figures, then parsed back and
   validated — so metrics emission can never silently rot.              *)
(* ------------------------------------------------------------------ *)

let smoke () =
  print_header "Smoke: knn tiny, 1-1-1" [ "Decomp(s)"; "bytes"; "par(x)"; "proc(x)" ];
  let app = H.knn_app ~name:"knn-tiny" Apps.Knn.tiny in
  let widths = [| 1; 1; 1 |] in
  let t, bytes, _, c =
    cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~widths app)
  in
  let legs = wall_legs ~label:"1-1-1" ~widths app in
  Record.row ~tags:[ ("backend", "sim") ] ~measured:(wall_cells legs)
    ~copies:(copies widths) "1-1-1"
    ([
       ("decomp_s", t);
       ("bytes", bytes);
       ("predicted_total_s", c.Compile.predicted_total);
     ]
    @ drift_cells ~sim_s:t legs);
  print_row "1-1-1"
    ([ Fmt.str "%.4f" t; Fmt.str "%.0f" bytes ] @ drift_strs ~sim_s:t legs);
  Record.write "smoke";
  (* parse the emitted file back and validate its shape *)
  let path = Record.path_of "smoke" in
  let doc = J.parse (In_channel.with_open_text path In_channel.input_all) in
  let check what cond =
    if not cond then begin
      Fmt.epr "bench smoke: %s does not hold in %s@." what path;
      exit 1
    end
  in
  List.iter (fun p -> check p false) (Schema.problems doc);
  check "target is \"smoke\"" (J.to_str (J.member "target" doc) = "smoke");
  check "host carries the commit"
    (J.member_opt "commit" (J.member "host" doc) <> None);
  let rows = J.to_list (J.member "rows" doc) in
  check "exactly one row" (List.length rows = 1);
  let row = List.hd rows in
  check "config is 1-1-1" (J.to_str (J.member "config" row) = "1-1-1");
  check "row carries the schema version"
    (J.to_int (J.member "schema_version" row) = Obs.Metrics.schema_version);
  check "backend discriminator is sim"
    (J.to_str (J.member "backend" row) = "sim");
  check "positive makespan" (J.to_float (J.member "decomp_s" row) > 0.0);
  check "positive bytes" (J.to_float (J.member "bytes" row) > 0.0);
  check "positive prediction"
    (J.to_float (J.member "predicted_total_s" row) > 0.0);
  if drift_enabled () then begin
    check "measured par drift recorded"
      (J.to_float (J.member "par_drift" row) > 0.0);
    check "par wall time carries its IQR"
      (J.to_float (J.member "par_wall_s_iqr" row) >= 0.0);
    check (Fmt.str "n = %d" Schema.reps) (J.to_int (J.member "n" row) = Schema.reps);
    check "3 copies flagged oversubscribed exactly when nproc < 3"
      (J.member "oversubscribed" row = J.Bool (3 > Record.nproc))
  end;
  Fmt.pr "smoke: %s parses back and validates@." path

(* ------------------------------------------------------------------ *)
(* The sequential executor, alone: [Compile.run_reference] of the
   z-buffer program on the large iso dataset after one warm-up run, five
   times, each run's allocation, collections and wall time.  Minor words
   count what the executor allocates per run and promoted words what a
   minor collection finds alive (the packet in flight); nothing is
   recorded under bench/results.                                        *)
(* ------------------------------------------------------------------ *)

let interp () =
  let c = H.compile ~widths:[| 1; 1; 1 |] (H.iso_app ~variant:`Zbuffer Apps.Isosurface.large) in
  print_header "Interp: sequential reference run, iso z-buffer large"
    [ "minor Mwords"; "promoted Mw"; "minor GCs"; "major GCs"; "wall s" ];
  ignore (Compile.run_reference c);
  (* [Gc.minor_words], not [quick_stat]'s field, which OCaml 5 only
     advances at a minor collection *)
  for run = 1 to 5 do
    let s0 = Gc.quick_stat () and w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (Compile.run_reference c));
    let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () and s1 = Gc.quick_stat () in
    let mw f = Fmt.str "%.2f" ((f s1 -. f s0) /. 1e6) in
    let count f = string_of_int (f s1 - f s0) in
    print_row (string_of_int run)
      [
        Fmt.str "%.2f" ((w1 -. w0) /. 1e6);
        mw (fun s -> s.Gc.promoted_words);
        count (fun s -> s.Gc.minor_collections);
        count (fun s -> s.Gc.major_collections);
        Fmt.str "%.3f" (t1 -. t0);
      ]
  done

let targets =
  [
    ("fig5", fun () -> iso "Figure 5: z-buffer, small dataset" `Zbuffer Apps.Isosurface.small);
    ("fig6", fun () -> iso "Figure 6: z-buffer, large dataset" `Zbuffer Apps.Isosurface.large);
    ("fig7", fun () -> iso "Figure 7: active pixels, small dataset" `Apix Apps.Isosurface.small);
    ("fig8", fun () -> iso "Figure 8: active pixels, large dataset" `Apix Apps.Isosurface.large);
    ("fig9", fun () -> knn "Figure 9: knn, k = 3" (Apps.Knn.with_k 3));
    ("fig10", fun () -> knn "Figure 10: knn, k = 200" (Apps.Knn.with_k 200));
    ("fig11", fun () -> vmscope "Figure 11: vmscope, small query" Apps.Vmscope.small_query);
    ("fig12", fun () -> vmscope "Figure 12: vmscope, large query" Apps.Vmscope.large_query);
    ("ablation_dp", ablation_dp);
    ("ablation_packing", ablation_packing);
    ("ablation_packet", ablation_packet);
    ("transport", transport);
    ("transport_smoke", transport_smoke);
    ("outofcore", outofcore);
    ("adaptive", adaptive);
    ("smoke", smoke);
    ("interp", interp);
  ]

(* Targets that print only, with no results file. *)
let unrecorded = [ "interp" ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst targets
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f ->
          Record.start name;
          f ();
          if not (List.mem name unrecorded) then Record.write name;
          if !Record.failed then begin
            Fmt.epr "%s: some legs could not run (see the \"error\" rows)@."
              name;
            exit 2
          end
      | None ->
          Fmt.epr "unknown target %s; available: %s@." name
            (String.concat " " (List.map fst targets));
          exit 1)
    requested
