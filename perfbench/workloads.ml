(* The benchmark workloads and one repetition of each.

   Every workload runs a three-stage pipeline at widths 1-1-1 on a real
   backend (par: domains, proc: forked worker processes), in two kinds
   of repetition:

   - closed loop: the source emits as fast as the pipeline accepts.
     These give set-up time, end-to-end time, throughput and memory.
   - open loop: the source emits item i at t0 + i/rate whatever the
     pipeline does, and each item's latency counts from that due time.
     These give latency.  A closed loop is no place to read latency: the
     source runs ahead of the slowest stage, so the backlog it builds
     follows the small difference of two service times rather than the
     pipeline.

   The pipelines:

   - flood-proc / flood-par: a bench-owned source floods seeded 32-byte
     items through a pass-through filter into a checksumming sink.  The
     filters do no work, so the cost is the engine, its queues and, on
     proc, the wire codec and shared-memory rings.
   - iso-proc / iso-par: the z-buffer isosurface program compiled from
     PipeLang source text with the compiler's decomposition; the sink
     result must equal the sequential reference execution. *)

module H = Apps.Harness
module R = Datacutter.Runtime
module E = Datacutter.Engine
module F = Datacutter.Filter
module T = Datacutter.Topology
module M = Measure

type size = Full | Tiny

type kind =
  | Flood of { items : int; open_items : int }
      (** items per closed- and per open-loop repetition *)
  | Iso of Apps.Isosurface.config

type spec = {
  name : string;
  backend : R.backend;
  kind : kind;
  rate : float;  (** items (iso: packets) per second offered in open loop *)
  why : string;
}

let item_bytes = 32

let specs size =
  let n full tiny = match size with Full -> full | Tiny -> tiny in
  let iso = match size with Full -> Apps.Isosurface.large | Tiny -> Apps.Isosurface.tiny in
  [
    {
      name = "flood-proc";
      backend = R.Proc;
      kind = Flood { items = n 200_000 2_000; open_items = n 20_000 500 };
      rate = 20_000.0;
      why =
        "empty filters on proc: engine routing, wire framing, shm rings and \
         credit window; open loop at a fifth of capacity for latency";
    };
    {
      name = "flood-par";
      backend = R.Par;
      kind = Flood { items = n 100_000 2_000; open_items = n 20_000 500 };
      rate = 20_000.0;
      why =
        "empty filters on domains: the engine and queue path without wire or \
         shm, flat under transport changes";
    };
    {
      name = "iso-proc";
      backend = R.Proc;
      kind = Iso iso;
      rate = 50.0;
      why =
        "the paper's z-buffer program compiled from source on proc: compiler \
         and interpreted filter service dominate";
    };
    {
      name = "iso-par";
      backend = R.Par;
      kind = Iso iso;
      rate = 50.0;
      why =
        "the same compiled program on domains: identical compiler work, \
         exposes the par runtime and GC under domains";
    };
  ]

let find_spec size name = List.find_opt (fun s -> s.name = name) (specs size)

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let widths = [| 1; 1; 1 |]
let cluster = H.default_cluster
let powers = H.node_powers cluster widths
let bandwidths = Array.make 2 cluster.H.bandwidth

type stamps = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [2n] floats over an unlinked temp file mapped shared: entry [p] is
   item p's due time, entry [n + p] when the source began producing it.
   Made before any fork, so a source running in a proc worker writes
   where the sink, in the run's own process, reads. *)
let shared_stamps n : stamps =
  let path = Filename.temp_file "perfbench-stamps" ".bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.float64 Bigarray.c_layout true [| 2 * n |]))

type input =
  | Stream of { payload : Bytes.t; expected_sum : int }
  | Program of { app : H.app; reference : (string * Lang.Value.t) list }

(* Latency instrumentation of an open-loop repetition. *)
type open_loop = {
  rate : float;
  stamps : stamps;
  lat : float array;  (** per-item latency, written by the sink *)
  mutable arrived : int;
}

(* Everything a repetition needs, prepared once per process from the
   seed.  The sink-side counters are reset by every set-up. *)
type inst = {
  spec : spec;
  seed : int;
  n : int;  (** items each repetition must deliver *)
  input : input;
  open_loop : open_loop option;  (** [None]: closed loop *)
  mutable got : int;  (** flood: items the sink received *)
  mutable sum : int;  (** flood: order-independent checksum of (packet, payload) *)
}

let item_hash packet (b : Bytes.t) =
  let h = ref ((packet + 1) * 0x9E3779B1) in
  for j = 0 to Bytes.length b - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get b j)
  done;
  !h land 0x3FFF_FFFF_FFFF

let stream_input ~seed n =
  let g = Apps.Prng.create seed in
  let payload = Bytes.create (n * item_bytes) in
  for w = 0 to (n * item_bytes / 8) - 1 do
    Bytes.set_int64_le payload (w * 8) (Apps.Prng.next g)
  done;
  let sum = ref 0 in
  for p = 0 to n - 1 do
    sum := (!sum + item_hash p (Bytes.sub payload (p * item_bytes) item_bytes)) land max_int
  done;
  Stream { payload; expected_sum = !sum }

let make (spec : spec) ~seed ~n ~input ~open_ =
  let open_loop =
    if not open_ then None
    else Some { rate = spec.rate; stamps = shared_stamps n; lat = Array.make n 0.0; arrived = 0 }
  in
  { spec; seed; n; input; open_loop; got = 0; sum = 0 }

(* The closed-loop instance of a workload. *)
let prepare spec ~seed =
  match spec.kind with
  | Flood { items; _ } -> make spec ~seed ~n:items ~input:(stream_input ~seed items) ~open_:false
  | Iso cfg ->
      let app = H.iso_app ~variant:`Zbuffer { cfg with Apps.Isosurface.seed } in
      let c = H.compile ~cluster ~widths app in
      make spec ~seed ~n:app.H.num_packets
        ~input:(Program { app; reference = Core.Compile.run_reference c })
        ~open_:false

(* The same workload's open-loop instance, or a closed-loop one with a
   shorter stream ([items]; flood only). *)
let variant inst ~open_ ?items () =
  let items =
    match (inst.spec.kind, items) with
    | Flood _, Some k -> k
    | Flood { open_items; _ }, None when open_ -> open_items
    | _ -> inst.n
  in
  let input = if items = inst.n then inst.input else stream_input ~seed:inst.seed items in
  make inst.spec ~seed:inst.seed ~n:items ~input ~open_

(* ------------------------------------------------------------------ *)
(* Set-up: everything from inputs to the call into run_result          *)
(* ------------------------------------------------------------------ *)

type built = {
  run : unit -> (E.metrics, Datacutter.Supervisor.run_error) result;
  readout : unit -> (string * Lang.Value.t) list;
  plan_s : float;  (** planning and topology construction, compile excluded *)
}

(* Open loop: the source waits until each item is due before producing
   it; the sink records arrival minus due time.  The k-th call to a
   width-1 source yields its k-th packet. *)
let pace_roles ol (topo : T.t) =
  let n = Array.length ol.lat and st = ol.stamps in
  let stage (s : T.stage) =
    match s.T.role with
    | T.Source mk ->
        let wrap (src : F.source) =
          let k = ref 0 and t0 = ref 0.0 in
          let next () =
            if !k = 0 then t0 := M.now ();
            let due = !t0 +. (float_of_int !k /. ol.rate) in
            incr k;
            let wait = due -. M.now () in
            if wait > 0.0 then Unix.sleepf wait;
            let start = M.now () in
            match src.F.next () with
            | Some (b, _) as r ->
                st.{b.F.packet} <- due;
                st.{n + b.F.packet} <- start;
                r
            | None -> None
          in
          { src with F.next }
        in
        { s with T.role = T.Source (fun k -> wrap (mk k)) }
    | T.Sink mk ->
        let arrive (b : F.buffer) =
          let t = M.now () in
          if ol.arrived < n then ol.lat.(ol.arrived) <- t -. st.{b.F.packet};
          ol.arrived <- ol.arrived + 1
        in
        let wrap (f : F.t) = { f with F.process = (fun b -> arrive b; f.F.process b) } in
        { s with T.role = T.Sink (fun k -> wrap (mk k)) }
    | T.Inner _ -> s
  in
  T.create ~stages:(List.map stage topo.T.stages) ~links:topo.T.links

let stream_topology inst ~payload =
  let n = inst.n in
  let source _ =
    let next_p = ref 0 in
    let next () =
      let p = !next_p in
      if p >= n then None
      else begin
        incr next_p;
        Some (F.make_buffer ~packet:p (Bytes.sub payload (p * item_bytes) item_bytes), 1.0)
      end
    in
    { F.src_name = "src"; next; src_finalize = (fun () -> (None, 0.0)) }
  in
  let sink _ =
    {
      (F.pass_through "sink") with
      F.process =
        (fun b ->
          inst.got <- inst.got + 1;
          inst.sum <- (inst.sum + item_hash b.F.packet b.F.data) land max_int;
          (None, 1.0));
    }
  in
  let stage s stage_name role = { T.stage_name; width = 1; power = powers.(s); role } in
  T.create
    ~stages:
      [
        stage 0 "src" (T.Source source);
        stage 1 "mid" (T.Inner (fun _ -> F.pass_through "mid"));
        stage 2 "sink" (T.Sink sink);
      ]
    ~links:
      (List.map
         (fun bw -> { T.bandwidth = bw; latency = cluster.H.latency })
         (Array.to_list bandwidths))

let setup inst =
  inst.got <- 0;
  inst.sum <- 0;
  Option.iter (fun ol -> ol.arrived <- 0) inst.open_loop;
  let paced topo = match inst.open_loop with Some ol -> pace_roles ol topo | None -> topo in
  let backend = inst.spec.backend in
  match inst.input with
  | Stream { payload; _ } ->
      let topo, plan_s =
        M.span "build_topology" (fun () -> paced (stream_topology inst ~payload))
      in
      { run = (fun () -> R.run_result ~backend topo); readout = (fun () -> []); plan_s }
  | Program { app; _ } ->
      let c, _ = M.span "compile" (fun () -> H.compile ~cluster ~widths app) in
      let stage_batch, t1 = M.span "batch_plan" (fun () -> H.batch_plan c ~widths ~batch:1) in
      let frame_bytes, t2 = M.span "frame_plan" (fun () -> H.frame_plan c ~widths ~batch:1) in
      let inflight, t3 = M.span "inflight_plan" (fun () -> H.inflight_plan c ~cluster) in
      let (topo, results), t4 =
        M.span "build_topology" (fun () ->
            let topo, results =
              Core.Codegen.build_topology c.Core.Compile.plan ~widths ~powers ~bandwidths
                ~latency:cluster.H.latency ()
            in
            (paced topo, results))
      in
      let run () =
        match backend with
        | R.Proc -> R.run_result ~backend ?stage_batch ~inflight ~frame_bytes topo
        | _ -> R.run_result ~backend ?stage_batch topo
      in
      { run; readout = results; plan_s = t1 +. t2 +. t3 +. t4 }

(* Set-up alone, for the setup_s samples: the mean of [batch]
   back-to-back set-ups, for set-ups too short to time one by one. *)
let setup_only ?(batch = 1) inst =
  let (), t = M.time (fun () -> for _ = 1 to batch do ignore (setup inst) done) in
  t /. float_of_int batch

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)
(* ------------------------------------------------------------------ *)

type rep = {
  failure : string option;  (** [None] when the run succeeded and verified *)
  run_s : float;  (** the call into run_result *)
  total_s : float;  (** set-up, run and readout *)
  items : int;
  lat : M.Lhist.t option;  (** open loop: latency from due time, seconds *)
  lag : M.Lhist.t option;  (** open loop: how late the source began each item *)
  rss_mb : float;
  layers : (string * float) list;  (** per-layer values of this run *)
}

let failed why =
  {
    failure = Some why;
    run_s = nan;
    total_s = nan;
    items = 0;
    lat = None;
    lag = None;
    rss_mb = nan;
    layers = [];
  }

(* ---- per-layer values read from one run ---- *)

let json_float = function
  | Obs.Json.Float f -> Some f
  | Obs.Json.Int i -> Some (float_of_int i)
  | _ -> None

let section (m : E.metrics) key = List.assoc_opt key m.E.extra

(* Filter-callback busy seconds per stage: measured inside the worker
   processes on proc (shipped only when tracing), else the engine's own
   per-copy busy clock. *)
let callback_busy (m : E.metrics) s =
  let engine = m.E.busy_s.(s).(0) in
  match section m "workers" with
  | Some w -> (
      match Obs.Json.member_opt (m.E.stage_names.(s) ^ "/0") w with
      | Some c -> Option.value ~default:engine (Option.bind (Obs.Json.member_opt "busy_s" c) json_float)
      | None -> engine)
  | None -> engine

let run_layers inst (m : E.metrics) ~plan_s ~run_s ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
  let items = float_of_int inst.n in
  let busy = Array.init 3 (callback_busy m) in
  let occ s =
    match m.E.queue_occupancy with
    | Some h when Array.length h.(s) > 0 -> Obs.Hist.mean h.(s).(0)
    | _ -> nan
  in
  let common =
    [
      ("plan_s", plan_s);
      ("filter.service_us.src", busy.(0) /. items *. 1e6);
      ("filter.service_us.mid", busy.(1) /. items *. 1e6);
      ("filter.service_us.sink", busy.(2) /. items *. 1e6);
      ("filter.bottleneck_frac", Array.fold_left Float.max 0.0 busy /. run_s);
      ("engine.stall_pop_frac.mid", m.E.stall_pop_s.(1).(0) /. run_s);
      ("engine.stall_pop_frac.sink", m.E.stall_pop_s.(2).(0) /. run_s);
      ("engine.stall_push_frac.src", m.E.stall_push_s.(0).(0) /. run_s);
      ("engine.stall_push_frac.mid", m.E.stall_push_s.(1).(0) /. run_s);
      ("engine.queue_occupancy_mean.mid", occ 1);
      ("engine.queue_occupancy_mean.sink", occ 2);
      ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("gc.promoted_mb", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. 8.0 /. 1048576.0);
    ]
  in
  (* Proc only: the credit window and the rings. *)
  let proc =
    match section m "transport" with
    | None -> []
    | Some t ->
        let get k = Option.bind (Obs.Json.member_opt k t) json_float in
        List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) v)
          [
            ("proc.credit_stall_frac", Option.map (fun s -> s /. run_s) (get "credit_stall_s"));
            ("shm.overflow_frames", get "overflow_frames");
            ("shm.ring_occupancy_hw", get "ring_occupancy_hw");
          ]
  in
  common @ proc

(* Compiler phase seconds from the trace's compiler spans. *)
let compile_phases () =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Obs.Trace.Span { cat = "compiler"; name; dur; _ } ->
          let key = "compile." ^ name ^ "_s" in
          (key, dur +. Option.value ~default:0.0 (List.assoc_opt key acc))
          :: List.remove_assoc key acc
      | _ -> acc)
    [] (Obs.Trace.events ())
  |> List.rev

let results_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && Lang.Value.equal v1 v2) a b

let verify inst results =
  match inst.input with
  | Stream { expected_sum; _ } ->
      if inst.got <> inst.n then
        Some (Printf.sprintf "sink received %d items, expected %d" inst.got inst.n)
      else if inst.sum <> expected_sum then Some "sink checksum differs from the generated input"
      else None
  | Program { reference; _ } ->
      if results_equal results reference then None
      else Some "sink result differs from the sequential reference"

(* One repetition: set-up, run, readout, verification.  With
   [trace_file] the run is recorded with Obs.Trace (bench spans, the
   compiler's phase spans, the engine's callback spans and, on proc, the
   workers' shipped spans) and written there as a Chrome trace. *)
let run_once ?trace_file inst =
  if trace_file <> None then begin
    Obs.Trace.clear ();
    Obs.Trace.enable ()
  end;
  let t_start = M.now () in
  let b, setup_s = M.span "setup" (fun () -> setup inst) in
  let gc0 = Gc.quick_stat () in
  let res, run_s = M.span "run" b.run in
  let gc1 = Gc.quick_stat () in
  let out =
    match res with
    | Error e -> failed (Fmt.str "%a" Datacutter.Supervisor.pp_run_error e)
    | Ok m -> (
        let results, readout_s = M.span "readout" b.readout in
        let total_s = M.now () -. t_start in
        match verify inst results with
        | Some why -> failed why
        | None ->
            let lat, lag =
              match inst.open_loop with
              | None -> (None, None)
              | Some ol ->
                  let lag = M.Lhist.create () in
                  for p = 0 to inst.n - 1 do
                    M.Lhist.add lag (ol.stamps.{inst.n + p} -. ol.stamps.{p})
                  done;
                  (Some (M.Lhist.of_array (Array.sub ol.lat 0 (min ol.arrived inst.n))), Some lag)
            in
            let traced =
              if trace_file = None then []
              else
                ("residual_frac", 1.0 -. ((setup_s +. run_s +. readout_s) /. total_s))
                :: compile_phases ()
            in
            {
              failure = None;
              run_s;
              total_s;
              items = inst.n;
              lat;
              lag;
              rss_mb = M.peak_rss_mb ();
              layers = run_layers inst m ~plan_s:b.plan_s ~run_s ~gc0 ~gc1 @ traced;
            })
  in
  Option.iter
    (fun path ->
      Obs.Trace.disable ();
      Obs.Chrome_trace.write_file ~process_name:("perfbench " ^ inst.spec.name) path;
      Obs.Trace.clear ())
    trace_file;
  out

(* Every rep runs in a fresh child of the runner, which itself never
   spawns a domain: proc runs can then always fork their workers, and
   each rep's peak RSS is its own.  A child that cannot fork is a failed
   rep. *)
let rep ?trace_file inst =
  match M.in_child (fun () -> run_once ?trace_file inst) with Ok r -> r | Error e -> failed e

(* An item of the workload's own shape, for the layer probes: a seeded
   32-byte payload, or the first packet the compiled program's source
   emits. *)
let sample_buffer inst =
  match inst.input with
  | Stream { payload; _ } -> F.make_buffer ~packet:0 (Bytes.sub payload 0 item_bytes)
  | Program { app; _ } -> (
      let c = H.compile ~cluster ~widths app in
      match (Core.Codegen.make_source c.Core.Compile.plan ~width:1 0).F.next () with
      | Some (b, _) -> b
      | None -> invalid_arg "Workloads.sample_buffer: the program emits no packet")
