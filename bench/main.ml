(* Benchmark harness: regenerates every result figure of the paper's
   evaluation (§6, Figures 5-12) plus three ablations, on the simulated
   cluster.  Run `dune exec bench/main.exe` for everything, or pass a
   subset of targets:

     fig5 fig6    isosurface z-buffer, small / large dataset
     fig7 fig8    isosurface active pixels, small / large dataset
     fig9 fig10   k-nearest neighbours, k = 3 / k = 200
     fig11 fig12  virtual microscope, small / large query
     ablation_dp       decomposition algorithms (Fig. 3 DP, bottleneck
                       search, brute force) on the real app profiles
     ablation_packing  instance-wise vs field-wise buffer layouts (§5)
     ablation_packet   packet-size sweep (§8 future work)
     backends          one cell on every Engine backend (sim/par/proc),
                       rows tagged with a "backend" discriminator
     parallel          real-domain wall-clock speedups
     transport         proc shm rings: credit window x batch sweep
     micro             Bechamel micro-benchmarks of the compiler itself

   Absolute times are simulated seconds on the substitute cluster and are
   not meant to match the paper's testbed; the comparisons (who wins, by
   how much, how speedups scale with pipeline width) are the result. *)

open Core
module H = Apps.Harness

let cluster = H.default_cluster

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                             *)
(* ------------------------------------------------------------------ *)

(* Every figure's cells are also recorded as JSON rows and written to
   bench/results/BENCH_<target>.json (override the directory with
   BENCH_OUT_DIR), so the perf trajectory of the repo is a diffable
   artifact rather than scrollback. *)
module Record = struct
  let out_dir () =
    match Sys.getenv_opt "BENCH_OUT_DIR" with
    | Some d -> d
    | None -> Filename.concat "bench" "results"

  let rec mkdir_p d =
    if d <> "" && d <> "." && d <> "/" then
      if Sys.file_exists d then begin
        if not (Sys.is_directory d) then
          failwith
            (Printf.sprintf
               "bench results directory %S exists but is not a directory" d)
      end
      else begin
        mkdir_p (Filename.dirname d);
        (try Sys.mkdir d 0o755 with Sys_error _ -> ())
      end

  let title = ref ""
  let rows : Obs.Json.t list ref = ref []

  (* set when a leg of the current target could not run *)
  let failed = ref false

  let start t =
    title := t;
    rows := [];
    failed := false

  (* one table row: the schema version, the config label, optional
     string tags (e.g. the "backend" discriminator), named numeric
     cells, then the error of a leg that could not run *)
  let row ?(tags = []) ?error label cells =
    rows :=
      Obs.Json.Obj
        (("schema_version", Obs.Json.Int Obs.Metrics.schema_version)
         :: ("config", Obs.Json.Str label)
         :: List.map (fun (k, v) -> (k, Obs.Json.Str v)) tags
        @ List.map (fun (k, v) -> (k, Obs.Json.Float v)) cells
        @ match error with None -> [] | Some e -> [ ("error", Obs.Json.Str e) ])
      :: !rows

  (* A proc leg that could not run — no fork on this platform, or a
     domain already spawned in this process — is recorded, not dropped:
     a row with an "error" field, and the target exits non-zero. *)
  let proc_unavailable label msg =
    failed := true;
    Fmt.pr "%-8s proc leg failed: %s@." label msg;
    row ~tags:[ ("backend", "proc") ] ~error:msg label []

  let path_of target =
    Filename.concat (out_dir ()) ("BENCH_" ^ target ^ ".json")

  (* Refuse to clobber a richer result file with a thinner one — a
     partial or truncated rerun would silently shrink the recorded perf
     history.  BENCH_FORCE=1 overrides. *)
  let check_overwrite path =
    if Sys.getenv_opt "BENCH_FORCE" <> Some "1" && Sys.file_exists path then
      let old_rows =
        try
          let ic = open_in path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Obs.Json.member_opt "rows" (Obs.Json.parse text) with
          | Some (Obs.Json.List old) -> List.length old
          | _ -> 0
        with _ -> 0
      in
      if old_rows > List.length !rows then
        Fmt.failwith
          "refusing to overwrite %s: it holds %d rows, this run produced \
           only %d (set BENCH_FORCE=1 to overwrite anyway)"
          path old_rows
          (List.length !rows)

  let write target =
    mkdir_p (out_dir ());
    let path = path_of target in
    check_overwrite path;
    Obs.Json.write_file path
      (Obs.Json.Obj
         [
           ("target", Obs.Json.Str target);
           ("title", Obs.Json.Str !title);
           ("rows", Obs.Json.List (List.rev !rows));
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
(* Sim-predicted vs measured drift                                      *)
(* ------------------------------------------------------------------ *)

(* Every figure row re-runs its Decomp cell on the measured backends
   and records wall-clock seconds plus the measured/simulated ratio
   ("drift") — per-backend baselines for every figure, not just the
   `backends` target.  OCaml 5 permanently refuses Unix.fork once a
   domain has been spawned, so each figure measures its whole proc
   column BEFORE its first par leg; in a combined multi-target run, the
   first target after a par leg records its proc cells as errors and
   exits non-zero.
   Set BENCH_DRIFT=0 to skip the measured legs entirely (sim-only,
   fast). *)
let drift_enabled () = Sys.getenv_opt "BENCH_DRIFT" <> Some "0"

(* Run [f] in a forked child and marshal its result back over a pipe.
   The proc backend spawns parent-side driver domains, and OCaml 5
   permanently refuses [Unix.fork] once any domain has ever been
   spawned in a process — so every proc leg runs in its own child,
   keeping the bench itself fork-capable for the next proc leg.  [None]
   when fork is unavailable (non-Unix, or a par leg already spawned
   domains here); a child that fails aborts the bench. *)
let in_subprocess (f : unit -> 'a) : 'a option =
  if not Datacutter.Proc_runtime.available then None
  else
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | exception (Invalid_argument _ | Failure _) ->
        Unix.close rd;
        Unix.close wr;
        None
    | 0 ->
        Unix.close rd;
        let r = f () in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc r [];
        flush oc;
        Unix._exit 0
    | pid -> (
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let r =
          try Some (Marshal.from_channel ic : 'a)
          with End_of_file | Failure _ -> None
        in
        close_in ic;
        match (r, Unix.waitpid [] pid) with
        | Some r, (_, Unix.WEXITED 0) -> Some r
        | _, (_, Unix.WEXITED c) ->
            Fmt.failwith "proc subprocess exited %d without a result" c
        | _, (_, Unix.WSIGNALED sg) ->
            Fmt.failwith "proc subprocess killed by signal %d" sg
        | _, (_, Unix.WSTOPPED _) -> Fmt.failwith "proc subprocess stopped")

let measured ~backend ~strategy ~widths app =
  let run () =
    match H.run_cell ~cluster ~strategy ~backend ~widths app with
    | Ok (t, _, _, _) -> t
    | Error e ->
        Fmt.failwith "%s leg failed: %a"
          (Datacutter.Runtime.backend_name backend)
          Datacutter.Supervisor.pp_run_error e
  in
  match backend with
  | Datacutter.Runtime.Proc -> (
      match in_subprocess run with
      | Some t -> Some t
      | None ->
          Record.proc_unavailable
            (String.concat "-" (List.map string_of_int (Array.to_list widths)))
            "fork unavailable";
          None)
  | _ -> Some (run ())

(* Proc wall-clock for every configuration, measured up front while
   fork is still available. *)
let proc_prepass ~strategy app =
  if not (drift_enabled ()) then []
  else
    List.map
      (fun (label, widths) ->
        ( label,
          measured ~backend:Datacutter.Runtime.Proc ~strategy ~widths app ))
      H.configurations

let par_leg ~strategy ~widths app =
  if not (drift_enabled ()) then None
  else measured ~backend:Datacutter.Runtime.Par ~strategy ~widths app

(* JSON cells a figure row gains when measured legs ran: wall-clock and
   the measured/simulated drift ratio per backend. *)
let drift_cells ~sim_s ~par_s ~proc_s =
  let one name = function
    | Some t -> [ (name ^ "_wall_s", t); (name ^ "_drift", t /. sim_s) ]
    | None -> []
  in
  one "par" par_s @ one "proc" proc_s

let drift_str sim_s = function
  | Some t -> Fmt.str "%.1f" (t /. sim_s)
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* Figures 5-8: isosurface (Default vs Decomp, 3 configurations)        *)
(* ------------------------------------------------------------------ *)

let iso_figure ~title ~variant cfg =
  print_header title
    [ "Default(s)"; "Decomp(s)"; "improv(%)"; "speedup(D)"; "par(x)"; "proc(x)" ];
  let app = H.iso_app ~variant cfg in
  let procs = proc_prepass ~strategy:Compile.Decomp app in
  let base = ref 0.0 in
  List.iter
    (fun (label, widths) ->
      let t_def, _, _, _ = cell (H.run_cell ~cluster ~strategy:Compile.Default ~widths app) in
      let t_dec, _, _, _ = cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~widths app) in
      if label = "1-1-1" then base := t_dec;
      let par_s = par_leg ~strategy:Compile.Decomp ~widths app in
      let proc_s = Option.join (List.assoc_opt label procs) in
      Record.row ~tags:[ ("backend", "sim") ] label
        ([
           ("default_s", t_def);
           ("decomp_s", t_dec);
           ("improv_pct", pct_faster ~default:t_def ~decomp:t_dec);
           ("speedup", !base /. t_dec);
         ]
        @ drift_cells ~sim_s:t_dec ~par_s ~proc_s);
      print_row label
        [
          Fmt.str "%.4f" t_def;
          Fmt.str "%.4f" t_dec;
          Fmt.str "%.1f" (pct_faster ~default:t_def ~decomp:t_dec);
          Fmt.str "%.2f" (!base /. t_dec);
          drift_str t_dec par_s;
          drift_str t_dec proc_s;
        ])
    H.configurations

let fig5 () =
  iso_figure ~title:"Figure 5: z-buffer, small dataset" ~variant:`Zbuffer
    Apps.Isosurface.small

let fig6 () =
  iso_figure ~title:"Figure 6: z-buffer, large dataset" ~variant:`Zbuffer
    Apps.Isosurface.large

let fig7 () =
  iso_figure ~title:"Figure 7: active pixels, small dataset" ~variant:`Apix
    Apps.Isosurface.small

let fig8 () =
  iso_figure ~title:"Figure 8: active pixels, large dataset" ~variant:`Apix
    Apps.Isosurface.large

(* ------------------------------------------------------------------ *)
(* Figures 9-10: knn (Default / Decomp-Comp / Decomp-Manual)            *)
(* ------------------------------------------------------------------ *)

let knn_figure ~title cfg =
  print_header title
    [ "Default(s)"; "Comp(s)"; "Manual(s)"; "improv(%)"; "comp/man"; "par(x)"; "proc(x)" ];
  let app = H.knn_app cfg in
  let procs = proc_prepass ~strategy:Compile.Decomp app in
  List.iter
    (fun (label, widths) ->
      let t_def, _, _, _ = cell (H.run_cell ~cluster ~strategy:Compile.Default ~widths app) in
      let t_cmp, _, _, _ = cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~widths app) in
      let topo, _ =
        Apps.Knn.manual_topology cfg ~widths
          ~powers:(H.node_powers cluster widths)
          ~bandwidths:(Array.make 2 cluster.H.bandwidth)
          ~latency:cluster.H.latency ()
      in
      let t_man = (cell (Datacutter.Runtime.run_result topo)).Datacutter.Engine.elapsed_s in
      let par_s = par_leg ~strategy:Compile.Decomp ~widths app in
      let proc_s = Option.join (List.assoc_opt label procs) in
      Record.row ~tags:[ ("backend", "sim") ] label
        ([
           ("default_s", t_def);
           ("comp_s", t_cmp);
           ("manual_s", t_man);
           ("improv_pct", pct_faster ~default:t_def ~decomp:t_cmp);
           ("comp_over_manual", t_cmp /. t_man);
         ]
        @ drift_cells ~sim_s:t_cmp ~par_s ~proc_s);
      print_row label
        [
          Fmt.str "%.4f" t_def;
          Fmt.str "%.4f" t_cmp;
          Fmt.str "%.4f" t_man;
          Fmt.str "%.1f" (pct_faster ~default:t_def ~decomp:t_cmp);
          Fmt.str "%.2f" (t_cmp /. t_man);
          drift_str t_cmp par_s;
          drift_str t_cmp proc_s;
        ])
    H.configurations

let fig9 () = knn_figure ~title:"Figure 9: knn, k = 3" (Apps.Knn.with_k 3)
let fig10 () = knn_figure ~title:"Figure 10: knn, k = 200" (Apps.Knn.with_k 200)

(* ------------------------------------------------------------------ *)
(* Figures 11-12: virtual microscope                                    *)
(* ------------------------------------------------------------------ *)

let vmscope_figure ~title cfg =
  print_header title
    [ "Default(s)"; "Comp(s)"; "Manual(s)"; "improv(%)"; "comp/man"; "par(x)"; "proc(x)" ];
  let app = H.vmscope_app cfg in
  let procs = proc_prepass ~strategy:Compile.Decomp app in
  List.iter
    (fun (label, widths) ->
      let t_def, _, _, _ = cell (H.run_cell ~cluster ~strategy:Compile.Default ~widths app) in
      let t_cmp, _, _, _ = cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~widths app) in
      let topo, _ =
        Apps.Vmscope.manual_topology cfg ~widths
          ~powers:(H.node_powers cluster widths)
          ~bandwidths:(Array.make 2 cluster.H.bandwidth)
          ~latency:cluster.H.latency ()
      in
      let t_man = (cell (Datacutter.Runtime.run_result topo)).Datacutter.Engine.elapsed_s in
      let par_s = par_leg ~strategy:Compile.Decomp ~widths app in
      let proc_s = Option.join (List.assoc_opt label procs) in
      Record.row ~tags:[ ("backend", "sim") ] label
        ([
           ("default_s", t_def);
           ("comp_s", t_cmp);
           ("manual_s", t_man);
           ("improv_pct", pct_faster ~default:t_def ~decomp:t_cmp);
           ("comp_over_manual", t_cmp /. t_man);
         ]
        @ drift_cells ~sim_s:t_cmp ~par_s ~proc_s);
      print_row label
        [
          Fmt.str "%.4f" t_def;
          Fmt.str "%.4f" t_cmp;
          Fmt.str "%.4f" t_man;
          Fmt.str "%.1f" (pct_faster ~default:t_def ~decomp:t_cmp);
          Fmt.str "%.2f" (t_cmp /. t_man);
          drift_str t_cmp par_s;
          drift_str t_cmp proc_s;
        ])
    H.configurations

let fig11 () =
  vmscope_figure ~title:"Figure 11: vmscope, small query" Apps.Vmscope.small_query

let fig12 () =
  vmscope_figure ~title:"Figure 12: vmscope, large query" Apps.Vmscope.large_query

(* ------------------------------------------------------------------ *)
(* Ablation: decomposition algorithms (§4.4)                            *)
(* ------------------------------------------------------------------ *)

(* wall-clock of [f] amortized over enough repetitions to be measurable *)
let solve_time f =
  let reps = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

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
        let vec = V.Vec.create () in
        for i = 0 to 1999 do
          let fields = Hashtbl.create 10 in
          let base = Apps.Prng.hash_float 11 ((p * 2000) + i) in
          Hashtbl.replace fields "a1" (V.Vfloat base);
          Hashtbl.replace fields "a2" (V.Vfloat (base *. 0.5));
          for b = 0 to 7 do
            Hashtbl.replace fields
              (Printf.sprintf "b%d" b)
              (V.Vfloat (base +. float_of_int b))
          done;
          V.Vec.push vec (V.Vobject { V.ocls = "T"; V.ofields = fields })
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
(* Backend baseline: the same cell on all three Engine backends         *)
(* ------------------------------------------------------------------ *)

(* One compiled cell executed on the simulator, on domains and on
   forked worker processes, each row tagged with a "backend"
   discriminator so bench/results/ keeps per-backend baselines apart.
   The proc leg runs first: OCaml 5 permanently refuses Unix.fork once
   any domain has been spawned in the process, so proc must precede
   par (and this target must precede `parallel` in a combined run —
   when fork is already poisoned the leg is recorded as an error). *)
let backends () =
  print_header "Backends: knn tiny, 2-2-1 (sim / par / proc)"
    [ "elapsed(s)"; "bytes" ];
  let app = H.knn_app ~name:"knn-tiny" Apps.Knn.tiny in
  let widths = [| 2; 2; 1 |] in
  List.iter
    (fun (name, backend) ->
      match
        H.run_cell ~cluster ~strategy:Compile.Decomp ~backend ~widths app
      with
      | Ok (t, bytes, _, _) ->
          Record.row ~tags:[ ("backend", name) ] name
            [ ("elapsed_s", t); ("bytes", bytes) ];
          print_row name [ Fmt.str "%.4f" t; Fmt.str "%.0f" bytes ]
      | Error (Datacutter.Supervisor.Unsupported msg) ->
          Record.proc_unavailable name msg
      | Error e ->
          Fmt.failwith "backend %s failed: %a" name
            Datacutter.Supervisor.pp_run_error e)
    [
      ("proc", Datacutter.Runtime.Proc);
      ("sim", Datacutter.Runtime.Sim);
      ("par", Datacutter.Runtime.Par);
    ]

(* ------------------------------------------------------------------ *)
(* Real multicore execution (OCaml 5 domains)                           *)
(* ------------------------------------------------------------------ *)

(* The figures above run on the simulated cluster; this target executes
   the same generated filters on real domains and reports wall-clock
   speedups — evidence the runtime substrate genuinely overlaps the
   pipeline stages.  Times include interpreter execution, so absolute
   values are much larger than simulated seconds. *)
let parallel () =
  print_header "Real domains: wall-clock (knn k=3, Decomp)"
    [ "width"; "wall(s)"; "speedup" ];
  let cores =
    try Domain.recommended_domain_count () with _ -> 1
  in
  if cores < 4 then
    Fmt.pr
      "  note: this host reports %d core(s); filter copies time-share, so@.      \  wall-clock speedup cannot appear here (run on a multicore host).@."
      cores;
  let app = H.knn_app (Apps.Knn.with_k 3) in
  let base = ref 0.0 in
  List.iter
    (fun (label, widths) ->
      let c = H.compile ~cluster ~strategy:Compile.Decomp ~widths app in
      let t =
        (* best of 3 to smooth scheduler noise *)
        List.init 3 (fun _ ->
            (fst (Compile.run_parallel c ~widths ())).Datacutter.Engine.elapsed_s)
        |> List.fold_left min infinity
      in
      if label = "1-1-1" then base := t;
      Record.row ~tags:[ ("backend", "par") ] label
        [ ("wall_s", t); ("speedup", !base /. t) ];
      print_row "" [ label; Fmt.str "%.4f" t; Fmt.str "%.2f" (!base /. t) ])
    H.configurations

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the compiler itself                     *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let knn_prog = Lang.Parser.parse Apps.Knn.source in
  let tests =
    Test.make_grouped ~name:"compiler"
      [
        Test.make ~name:"parse+typecheck (isosurface)"
          (Staged.stage (fun () ->
               let p = Lang.Parser.parse Apps.Isosurface.zbuffer_source in
               Lang.Typecheck.check ~externs:Apps.Isosurface.externs_sig p));
        Test.make ~name:"gencons+reqcomm (knn)"
          (Staged.stage (fun () ->
               let segs =
                 Boundary.segments_of_body
                   knn_prog.Lang.Ast.pipeline.Lang.Ast.pd_body
               in
               ignore (Reqcomm.analyze knn_prog segs)));
        (let task = Array.init 64 (fun i -> float_of_int (i + 1)) in
         let vol = Array.init 64 (fun i -> float_of_int ((i * 13 mod 50) + 1)) in
         let profile = { Costmodel.task; vol_out = vol; packets = 100 } in
         let pipeline = Costmodel.uniform ~m:8 ~power:100.0 ~bandwidth:100.0 () in
         Test.make ~name:"Fig.3 DP (n=63, m=8)"
           (Staged.stage (fun () -> ignore (Decompose.dp pipeline profile))));
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  Fmt.pr "@.== Compiler micro-benchmarks ==@.";
  Record.start "Compiler micro-benchmarks";
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Record.row ~tags:[ ("backend", "host") ] name
                [ ("ns_per_run", est) ];
              Fmt.pr "%-44s %14.0f ns/run@." name est
          | _ -> Fmt.pr "%-44s   (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* Throughput: batch-cap sweep on all three backends                    *)
(* ------------------------------------------------------------------ *)

(* The workload where per-item overhead dominates by construction
   (Streambench: many small buffers through a pass-through stage),
   swept over the engine's batch cap on every backend.  Sim rows are
   simulated seconds (the modeled startup-once-per-batch transfer
   cost); par and proc rows are wall-clock, so items/s at B>1 vs B=1 is
   the measured amortization of locks, wakeups and wire frames.  The
   proc column runs first: fork is refused once the par legs have
   spawned domains, and a proc leg attempted after them is recorded as
   an error. *)
let throughput_sweep ~title ~cfg ~batches () =
  print_header title [ "batch"; "elapsed(s)"; "items/s" ];
  let widths = [| 1; 1; 1 |] in
  let powers = H.node_powers cluster widths in
  let bandwidths = Array.make 2 cluster.H.bandwidth in
  let exp_count, exp_sum = Apps.Streambench.expected cfg in
  let leg backend b =
    let run () =
      let topo, results =
        Apps.Streambench.topology cfg ~widths ~powers ~bandwidths
          ~latency:cluster.H.latency ()
      in
      match Datacutter.Runtime.run_result ~backend ~batch:b topo with
      | Ok m ->
          let n, sum = results () in
          if (n, sum) <> (exp_count, exp_sum) then
            Fmt.failwith
              "throughput %s B=%d: sink saw (%d, %d), expected (%d, %d)"
              (Datacutter.Runtime.backend_name backend)
              b n sum exp_count exp_sum;
          (m.Datacutter.Engine.elapsed_s, Datacutter.Runtime.metrics_to_json m)
      | Error e ->
          Fmt.failwith "throughput %s B=%d failed: %a"
            (Datacutter.Runtime.backend_name backend)
            b Datacutter.Supervisor.pp_run_error e
    in
    match backend with
    | Datacutter.Runtime.Proc -> (
        match in_subprocess run with
        | Some r -> Some r
        | None ->
            Record.proc_unavailable (Printf.sprintf "B=%d" b)
              "fork unavailable";
            None)
    | _ -> Some (run ())
  in
  List.concat_map
    (fun (name, backend) ->
      List.filter_map
        (fun b ->
          match leg backend b with
          | None -> None
          | Some (t, doc) ->
              let rate = float_of_int cfg.Apps.Streambench.items /. t in
              Record.row ~tags:[ ("backend", name) ]
                (Printf.sprintf "B=%d" b)
                [
                  ("batch", float_of_int b);
                  ("elapsed_s", t);
                  ("items_per_s", rate);
                ];
              print_row (name ^ (if b = 1 then "" else "*"))
                [ string_of_int b; Fmt.str "%.4f" t; Fmt.str "%.0f" rate ];
              Some (name, b, doc))
        batches)
    [
      ("proc", Datacutter.Runtime.Proc);
      ("sim", Datacutter.Runtime.Sim);
      ("par", Datacutter.Runtime.Par);
    ]

let throughput () =
  ignore
    (throughput_sweep
       ~title:
         (Printf.sprintf "Throughput: streambench %d items x %d bytes, 1-1-1"
          Apps.Streambench.default.Apps.Streambench.items
          Apps.Streambench.default.Apps.Streambench.item_bytes)
       ~cfg:Apps.Streambench.default
       ~batches:[ 1; 8; 64; 512 ] ())

(* Tiny sweep for @perf-smoke: sim + par always, proc while fork is
   available, then assert the runtime metrics JSON of every batched leg
   carries batch-size histograms (and that some batch actually formed). *)
let throughput_smoke () =
  let legs =
    throughput_sweep ~title:"Perf smoke: streambench tiny, 1-1-1"
      ~cfg:Apps.Streambench.tiny ~batches:[ 1; 8 ] ()
  in
  let module J = Obs.Json in
  let check what cond =
    if not cond then begin
      Fmt.epr "perf smoke: %s does not hold@." what;
      exit 1
    end
  in
  check "a par leg ran" (List.exists (fun (n, _, _) -> n = "par") legs);
  check "a sim leg ran" (List.exists (fun (n, _, _) -> n = "sim") legs);
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
          List.concat_map
            (fun s -> J.to_list (J.member "batch_out" s))
            stages
        in
        check (ctx "per-stage batch_out histograms") (hists <> []);
        check (ctx "some flushed batch holds > 1 item")
          (List.exists
             (fun h ->
               match J.member "max" h with
               | J.Float f -> f > 1.0
               | _ -> false)
             hists)
      end)
    legs;
  Fmt.pr "perf smoke: batched legs carry batch-size histograms@."

(* ------------------------------------------------------------------ *)
(* Transport: the proc backend's shared-memory rings                    *)
(* ------------------------------------------------------------------ *)

(* The same streambench cell on the proc backend across the
   credit-window × batch grid: inflight {1, 4, 16}, each at batch 1, 64
   and 512.  The vs_strict column is items/s against inflight=1 at the
   same batch, so it isolates what credit-based pipelining buys; ring
   slots are planner-sized from the batch plan
   ({!Datacutter.Engine.plan_frame_bytes}) so the overflow column stays
   at zero even for B=512 frames.  Each leg runs in its own forked child
   (fork is refused once a domain has been spawned); legs are best-of-3
   wall clock. *)
let transport () =
  print_header "Transport: streambench proc 1-1-1 (shm inflight x batch)"
    [
      "batch"; "inflight"; "elapsed(s)"; "items/s"; "overflow"; "stall(s)";
      "vs w=1";
    ];
  let widths = [| 1; 1; 1 |] in
  let powers = H.node_powers cluster widths in
  let bandwidths = Array.make 2 cluster.H.bandwidth in
  let cfg = Apps.Streambench.default in
  let expected = Apps.Streambench.expected cfg in
  let items = float_of_int cfg.Apps.Streambench.items in
  let frame_bytes b =
    Datacutter.Engine.plan_frame_bytes
      ~stage_batch:(Array.make 3 b)
      ~item_bytes:
        [|
          float_of_int cfg.Apps.Streambench.item_bytes;
          float_of_int cfg.Apps.Streambench.item_bytes;
          16.0;
        |]
  in
  let leg ~inflight ~b =
    let run () =
      let topo, results =
        Apps.Streambench.topology cfg ~widths ~powers ~bandwidths
          ~latency:cluster.H.latency ()
      in
      match
        Datacutter.Runtime.run_result ~backend:Datacutter.Runtime.Proc
          ~inflight ~frame_bytes:(frame_bytes b) ~batch:b topo
      with
      | Ok m ->
          if results () <> expected then
            Fmt.failwith "transport B=%d w=%d: sink multiset diverged" b
              inflight;
          let overflow, stall =
            match List.assoc_opt "transport" m.Datacutter.Engine.extra with
            | Some (Obs.Json.Obj kv) ->
                ( (match List.assoc_opt "overflow_frames" kv with
                  | Some (Obs.Json.Int n) -> n
                  | _ -> 0),
                  match List.assoc_opt "credit_stall_s" kv with
                  | Some (Obs.Json.Float f) -> f
                  | _ -> 0.0 )
            | _ -> (0, 0.0)
          in
          (m.Datacutter.Engine.elapsed_s, overflow, stall)
      | Error e ->
          Fmt.failwith "transport B=%d w=%d failed: %a" b inflight
            Datacutter.Supervisor.pp_run_error e
    in
    let best = ref None in
    for _ = 1 to 3 do
      match in_subprocess run with
      | Some ((t, _, _) as r) -> (
          match !best with
          | Some (t0, _, _) when t0 <= t -> ()
          | _ -> best := Some r)
      | None -> ()
    done;
    !best
  in
  List.iter
    (fun b ->
      let strict = ref None in
      let deepest = ref None in
      List.iter
        (fun w ->
          let label = Printf.sprintf "B=%d/w=%d" b w in
          match leg ~inflight:w ~b with
          | None -> Record.proc_unavailable label "fork unavailable"
          | Some (t, overflow, stall) ->
              if w = 1 then strict := Some t;
              deepest := Some (w, t);
              let rate = items /. t in
              let vs = match !strict with Some t1 -> t1 /. t | None -> 1.0 in
              Record.row ~tags:[ ("backend", "proc") ] label
                [
                  ("batch", float_of_int b);
                  ("inflight", float_of_int w);
                  ("elapsed_s", t);
                  ("items_per_s", rate);
                  ("overflow_frames", float_of_int overflow);
                  ("credit_stall_s", stall);
                  ("vs_strict", vs);
                ];
              print_row "shm"
                [
                  string_of_int b;
                  string_of_int w;
                  Fmt.str "%.4f" t;
                  Fmt.str "%.0f" rate;
                  string_of_int overflow;
                  Fmt.str "%.3f" stall;
                  Fmt.str "%.2f" vs;
                ])
        [ 1; 4; 16 ];
      match (!strict, !deepest) with
      | Some t1, Some (w, t) when w > 1 ->
          Fmt.pr "  B=%d: inflight=%d is %.2fx strict items/s@." b w (t1 /. t)
      | _ -> ())
    [ 1; 64; 512 ]

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
  let leg ~label backend cfg ds expected budget =
    let run () =
      let topo, results =
        Apps.Streambench.topology cfg ~dataset:ds ~widths ~powers ~bandwidths
          ~latency:cluster.H.latency ()
      in
      match Datacutter.Runtime.run_result ~backend ?mem_budget:budget topo with
      | Ok m ->
          if results () <> expected then
            Fmt.failwith "outofcore %s: sink multiset diverged at %d items"
              (Datacutter.Runtime.backend_name backend)
              cfg.Apps.Streambench.items;
          ( m.Datacutter.Engine.elapsed_s,
            m.Datacutter.Engine.spilled_bytes,
            m.Datacutter.Engine.mem_high_water )
      | Error e ->
          Fmt.failwith "outofcore %s failed: %a"
            (Datacutter.Runtime.backend_name backend)
            Datacutter.Supervisor.pp_run_error e
    in
    match backend with
    | Datacutter.Runtime.Proc -> (
        match in_subprocess run with
        | Some r -> Some r
        | None ->
            Record.proc_unavailable label "fork unavailable";
            None)
    | _ -> Some (run ())
  in
  List.iter
    (fun (name, backend) ->
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
            List.iter
              (fun budget ->
                let blab =
                  match budget with None -> "inf" | Some b -> string_of_int b
                in
                let label = Printf.sprintf "x%d/%s" factor blab in
                match leg ~label backend cfg ds expected budget with
                | None -> ()
                | Some (t, spilled, high_water) ->
                    let items = cfg.Apps.Streambench.items in
                    let rate = float_of_int items /. t in
                    Record.row ~tags:[ ("backend", name) ] label
                      [
                        ("factor", float_of_int factor);
                        ("items", float_of_int items);
                        ("dataset_bytes", float_of_int (Apps.Dataset.size_bytes ds));
                        ( "mem_budget",
                          match budget with
                          | None -> 0.0
                          | Some b -> float_of_int b );
                        ("elapsed_s", t);
                        ("items_per_s", rate);
                        ("spilled_bytes", float_of_int spilled);
                        ("mem_high_water", float_of_int high_water);
                      ];
                    print_row
                      (name ^ if budget = None then "" else "*")
                      [
                        string_of_int items;
                        blab;
                        Fmt.str "%.4f" t;
                        Fmt.str "%.0f" rate;
                        string_of_int spilled;
                      ])
              budgets
          end)
        factors)
    [
      ("proc", Datacutter.Runtime.Proc);
      ("sim", Datacutter.Runtime.Sim);
      ("par", Datacutter.Runtime.Par);
    ]

(* ------------------------------------------------------------------ *)
(* Adaptive: elastic copies vs a deliberately misplanned plan.
   The misplanned streambench gives the latency-bound middle stage one
   copy; the static leg pays for that, the autoscaled leg discovers the
   missing copies mid-run, and the replanned leg derives them from the
   static run's measured metrics (the --replan-from path).  A final sim
   pair asserts the autoscaled simulator is bit-deterministic.          *)
(* ------------------------------------------------------------------ *)

let adaptive () =
  print_header
    "Adaptive: misplanned streambench 1-1-1 (static vs autoscale vs replan)"
    [ "elapsed(s)"; "items/s"; "vs static" ];
  (* 4x the misplanned stream so the autoscaler's one-time ramp (the
     backlog the planned copy accumulates before the first spawn) is
     amortized below the noise floor; queues capped at 32 items keep
     that head start small.  Both knobs apply to every par leg alike. *)
  let cfg = Apps.Streambench.scaled Apps.Streambench.misplanned 4 in
  let queue_capacity = 32 in
  let base_widths = [| 1; 1; 1 |] in
  let az = Datacutter.Engine.default_autoscale in
  let budget = az.Datacutter.Engine.as_budget in
  let leg ?autoscale ?queue_capacity ~backend ~cfg ?powers ?bandwidths
      ?latency ~widths () =
    let powers =
      match powers with Some p -> p | None -> H.node_powers cluster widths
    in
    let bandwidths =
      match bandwidths with
      | Some b -> b
      | None -> Array.make 2 cluster.H.bandwidth
    in
    let latency =
      match latency with Some l -> l | None -> cluster.H.latency
    in
    let topo, results =
      Apps.Streambench.topology cfg ~widths ~powers ~bandwidths ~latency ()
    in
    match
      Datacutter.Runtime.run_result ~backend ?autoscale ?queue_capacity topo
    with
    | Ok m ->
        if results () <> Apps.Streambench.expected cfg then
          Fmt.failwith "adaptive %s: sink multiset diverged"
            (Datacutter.Runtime.backend_name backend);
        m
    | Error e ->
        Fmt.failwith "adaptive %s failed: %a"
          (Datacutter.Runtime.backend_name backend)
          Datacutter.Supervisor.pp_run_error e
  in
  let spawned (m : Datacutter.Engine.metrics) =
    match m.Datacutter.Engine.autoscale_section with
    | Some j -> (
        try float_of_int (Obs.Json.to_int (Obs.Json.member "spawned" j))
        with Obs.Json.Parse_error _ -> 0.0)
    | None -> 0.0
  in
  let items = float_of_int cfg.Apps.Streambench.items in
  let record label (m : Datacutter.Engine.metrics) ~static_rate extra =
    let t = m.Datacutter.Engine.elapsed_s in
    let rate = items /. t in
    Record.row ~tags:[ ("backend", "par") ] label
      ([
         ("elapsed_s", t);
         ("items_per_s", rate);
         ("vs_static", rate /. static_rate);
       ]
      @ extra);
    print_row label
      [
        Fmt.str "%.4f" t;
        Fmt.str "%.0f" rate;
        Fmt.str "%.2f" (rate /. static_rate);
      ];
    rate
  in
  (* best-of-2 on the timed elastic legs: the comparison is against a
     10% window, tighter than one run's scheduler noise on a busy host *)
  let best_of n mk =
    let best = ref (mk ()) in
    for _ = 2 to n do
      let m = mk () in
      if
        m.Datacutter.Engine.elapsed_s < !best.Datacutter.Engine.elapsed_s
      then best := m
    done;
    !best
  in
  (* static leg: the misplanned plan as given *)
  let m_static =
    leg ~backend:Datacutter.Runtime.Par ~cfg ~queue_capacity
      ~widths:base_widths ()
  in
  let static_rate = items /. m_static.Datacutter.Engine.elapsed_s in
  ignore (record "static" m_static ~static_rate []);
  (* autoscaled leg: same plan, elastic budget armed *)
  let m_auto =
    best_of 2 (fun () ->
        leg ~autoscale:az ~backend:Datacutter.Runtime.Par ~cfg ~queue_capacity
          ~widths:base_widths ())
  in
  let auto_rate =
    record "autoscale" m_auto ~static_rate [ ("spawned", spawned m_auto) ]
  in
  (* replanned leg: feed the static run's measured metrics back through
     the planner and run the result statically *)
  let rp =
    match Replan.of_json (Datacutter.Runtime.metrics_to_json m_static) with
    | Ok t -> Replan.plan ~budget t
    | Error msg -> Fmt.failwith "adaptive: replan rejected the metrics: %s" msg
  in
  let m_replan =
    best_of 2 (fun () ->
        leg ~backend:Datacutter.Runtime.Par ~cfg ~queue_capacity
          ~widths:rp.Replan.pl_widths ())
  in
  let replan_rate =
    record "replan" m_replan ~static_rate
      [
        ( "replan_mid_width",
          float_of_int rp.Replan.pl_widths.(1) );
      ]
  in
  Fmt.pr "  autoscale %.2fx static; replan %.2fx static (%.2fx autoscaled)@."
    (auto_rate /. static_rate)
    (replan_rate /. static_rate)
    (replan_rate /. auto_rate);
  (* sim determinism: a modeled-slow middle stage (no real blocking —
     sim executes filters for real) behind fast modeled links, so the
     middle stage rather than the wire is the simulated bottleneck and
     the autoscaler actually spawns; run twice — the serialized metrics
     must be bit-identical.  The tighter controller interval fits more
     spawns into the window before the modeled source drains and
     freezes stage membership. *)
  let sim_cfg = Apps.Streambench.tiny in
  let sim_powers =
    [|
      cluster.H.node_power; cluster.H.node_power /. 16.0; cluster.H.view_power;
    |]
  in
  let sim_az = { az with Datacutter.Engine.as_interval_s = 0.0005 } in
  let sim_leg () =
    leg ~autoscale:sim_az ~backend:Datacutter.Runtime.Sim ~cfg:sim_cfg
      ~powers:sim_powers ~bandwidths:(Array.make 2 1e9) ~latency:0.0
      ~widths:base_widths ()
  in
  let m1 = sim_leg () and m2 = sim_leg () in
  let s1 = Obs.Json.to_string (Datacutter.Runtime.metrics_to_json m1) in
  let s2 = Obs.Json.to_string (Datacutter.Runtime.metrics_to_json m2) in
  if s1 <> s2 then begin
    Fmt.epr "adaptive: autoscaled sim runs are not bit-identical@.";
    exit 1
  end;
  if spawned m1 = 0.0 then begin
    Fmt.epr "adaptive: autoscaled sim run never spawned a copy@.";
    exit 1
  end;
  Record.row ~tags:[ ("backend", "sim") ] "sim-det"
    [
      ("deterministic", 1.0);
      ("elapsed_s", m1.Datacutter.Engine.elapsed_s);
      ("spawned", spawned m1);
    ];
  Fmt.pr "  sim: autoscaled run bit-deterministic (%.0f spawns)@." (spawned m1)

(* ------------------------------------------------------------------ *)
(* Smoke cell for @bench-smoke: one tiny figure cell, recorded through
   the same Record path as the real figures, then parsed back and
   validated — so metrics emission can never silently rot.              *)
(* ------------------------------------------------------------------ *)

let smoke () =
  print_header "Smoke: knn tiny, 1-1-1" [ "Decomp(s)"; "bytes"; "par(x)"; "proc(x)" ];
  let app = H.knn_app ~name:"knn-tiny" Apps.Knn.tiny in
  let widths = [| 1; 1; 1 |] in
  (* proc before par: fork is refused once a domain has been spawned *)
  let proc_s = measured ~backend:Datacutter.Runtime.Proc ~strategy:Compile.Decomp ~widths app in
  let t, bytes, _, c =
    cell (H.run_cell ~cluster ~strategy:Compile.Decomp ~widths app)
  in
  let par_s = par_leg ~strategy:Compile.Decomp ~widths app in
  Record.row ~tags:[ ("backend", "sim") ] "1-1-1"
    ([
       ("decomp_s", t);
       ("bytes", bytes);
       ("predicted_total_s", c.Compile.predicted_total);
     ]
    @ drift_cells ~sim_s:t ~par_s ~proc_s);
  print_row "1-1-1"
    [
      Fmt.str "%.4f" t;
      Fmt.str "%.0f" bytes;
      drift_str t par_s;
      drift_str t proc_s;
    ];
  Record.write "smoke";
  (* parse the emitted file back and validate its shape *)
  let path = Record.path_of "smoke" in
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let module J = Obs.Json in
  let doc = J.parse text in
  let check what cond =
    if not cond then begin
      Fmt.epr "bench smoke: %s does not hold in %s@." what path;
      exit 1
    end
  in
  check "target is \"smoke\"" (J.to_str (J.member "target" doc) = "smoke");
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
  if drift_enabled () then
    check "measured par drift recorded"
      (J.to_float (J.member "par_drift" row) > 0.0);
  Fmt.pr "smoke: %s parses back and validates@." path

let targets =
  [
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("ablation_dp", ablation_dp);
    ("ablation_packing", ablation_packing);
    ("ablation_packet", ablation_packet);
    ("backends", backends);
    ("parallel", parallel);
    ("throughput", throughput);
    ("throughput_smoke", throughput_smoke);
    ("transport", transport);
    ("outofcore", outofcore);
    ("adaptive", adaptive);
    ("micro", micro);
    ("smoke", smoke);
  ]

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
          Record.write name;
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
