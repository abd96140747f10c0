(* Tests for the observability layer: JSON round-trips, histograms,
   span nesting, counter aggregation, Chrome-trace well-formedness
   (export then parse back), and the metric invariants both runtimes
   promise — per-copy busy + stall bounded by the end-to-end time,
   items conserved across links, and sim/par item counts agreeing for
   the same topology. *)

module A = Alcotest
open Datacutter
module J = Obs.Json

let feps = 1e-9

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\te");
        ("i", J.Int (-42));
        ("f", J.Float 3.25);
        ("big", J.Float 1.5e300);
        ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("nested", J.Obj [ ("xs", J.List [ J.Int 1; J.Int 2; J.Int 3 ]) ]);
        ("empty_list", J.List []);
        ("empty_obj", J.Obj []);
      ]
  in
  let check parsed =
    A.(check string) "string member" "a\"b\\c\nd\te" (J.to_str (J.member "s" parsed));
    A.(check int) "int member" (-42) (J.to_int (J.member "i" parsed));
    A.(check (float feps)) "float member" 3.25 (J.to_float (J.member "f" parsed));
    A.(check (float 1e285)) "big float" 1.5e300 (J.to_float (J.member "big" parsed));
    A.(check int) "nested list" 3
      (List.length (J.to_list (J.member "xs" (J.member "nested" parsed))));
    A.(check int) "empty list" 0 (List.length (J.to_list (J.member "empty_list" parsed)))
  in
  check (J.parse (J.to_string v));
  check (J.parse (J.to_string_pretty v))

let test_json_special_floats () =
  (* NaN / inf serialize as null rather than breaking the document *)
  let s = J.to_string (J.List [ J.Float Float.nan; J.Float Float.infinity ]) in
  match J.parse s with
  | J.List [ J.Null; J.Null ] -> ()
  | _ -> A.fail ("expected [null,null], got " ^ s)

let test_json_errors () =
  let bad = [ "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ] in
  List.iter
    (fun s ->
      match J.parse_result s with
      | Ok _ -> A.fail (Printf.sprintf "parse %S should fail" s)
      | Error _ -> ())
    bad;
  (* \u escapes decode to UTF-8 *)
  A.(check string) "unicode escape" "A\xc3\xa9" (J.to_str (J.parse "\"A\\u00e9\""))

let test_json_surrogates () =
  (* a surrogate pair decodes to the single astral code point it
     encodes — U+1D11E MUSICAL SYMBOL G CLEF is \uD834\uDD1E *)
  A.(check string)
    "astral escape" "\xf0\x9d\x84\x9e"
    (J.to_str (J.parse "\"\\uD834\\uDD1E\""));
  (* mixed with surrounding text and a BMP escape *)
  A.(check string)
    "astral in context" "x\xf0\x9f\x98\x80y\xc3\xa9"
    (J.to_str (J.parse "\"x\\uD83D\\uDE00y\\u00e9\""));
  (* raw astral UTF-8 survives an emit → parse round-trip *)
  let astral = "clef \xf0\x9d\x84\x9e emoji \xf0\x9f\x98\x80" in
  A.(check string)
    "astral round-trip" astral
    (J.to_str (J.parse (J.to_string (J.Str astral))));
  (* lone or malformed surrogates are rejected, as are non-hex digits
     (int_of_string-style underscores must not sneak through) *)
  let bad =
    [
      "\"\\uD834\"" (* lone high *);
      "\"\\uD834x\"" (* high followed by literal char *);
      "\"\\uD834\\n\"" (* high followed by another escape *);
      "\"\\uDD1E\"" (* lone low *);
      "\"\\uD834\\uD834\"" (* high followed by high *);
      "\"\\u1_23\"" (* underscore is not a hex digit *);
      "\"\\u12\"" (* truncated *);
      "\"\\ud8\"" (* truncated surrogate *);
    ]
  in
  List.iter
    (fun s ->
      match J.parse_result s with
      | Ok _ -> A.fail (Printf.sprintf "parse %S should fail" s)
      | Error _ -> ())
    bad

(* --- Hist --- *)

let test_hist_buckets () =
  let h = Obs.Hist.create ~bounds:[| 1.0; 2.0; 4.0 |] in
  List.iter (Obs.Hist.observe h) [ 0.0; 1.0; 1.5; 3.0; 100.0 ];
  A.(check int) "count" 5 (Obs.Hist.count h);
  A.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |] (Obs.Hist.counts h);
  A.(check (float feps)) "sum" 105.5 (Obs.Hist.sum h);
  A.(check (float feps)) "min" 0.0 (Obs.Hist.min_value h);
  A.(check (float feps)) "max" 100.0 (Obs.Hist.max_value h);
  A.(check (float feps)) "median bound" 1.0 (Obs.Hist.quantile h 0.4);
  let m = Obs.Hist.merge h h in
  A.(check int) "merged count" 10 (Obs.Hist.count m);
  (* bucket counts in the JSON sum to the total count *)
  let j = Obs.Hist.to_json m in
  let total =
    List.fold_left
      (fun acc b -> acc + J.to_int (J.member "count" b))
      0
      (J.to_list (J.member "buckets" j))
  in
  A.(check int) "json bucket sum" 10 total

let test_hist_occupancy_bounds () =
  let b = Obs.Hist.occupancy_bounds ~capacity:8 in
  A.(check int) "unit buckets" 9 (Array.length b);
  let b64 = Obs.Hist.occupancy_bounds ~capacity:64 in
  A.(check (float feps)) "last bound is capacity" 64.0 b64.(Array.length b64 - 1)

(* --- Trace --- *)

let with_tracing f =
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  Fun.protect ~finally:(fun () -> Obs.Trace.disable ()) f

(* (start, dur) of every span named [name] *)
let spans_named name evs =
  List.filter_map
    (function
      | Obs.Trace.Span { name = n; ts; dur; _ } when n = name -> Some (ts, dur)
      | _ -> None)
    evs

let test_span_nesting () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 2)));
  let evs = Obs.Trace.events () in
  match (spans_named "outer" evs, spans_named "inner" evs) with
  | [ (ots, odur) ], ([ _; _ ] as inners) ->
      List.iter
        (fun (its, idur) ->
          A.(check bool) "inner starts after outer" true (its >= ots -. feps);
          A.(check bool) "inner ends before outer" true
            (its +. idur <= ots +. odur +. feps))
        inners
  | o, i ->
      A.fail
        (Printf.sprintf "expected 1 outer / 2 inner spans, got %d / %d"
           (List.length o) (List.length i))

let test_span_records_on_exception () =
  with_tracing @@ fun () ->
  (try Obs.Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  A.(check int) "span recorded despite exception" 1
    (List.length (spans_named "boom" (Obs.Trace.events ())))

let test_disabled_records_nothing () =
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.Trace.with_span "ghost" (fun () -> ());
  Obs.Trace.emit
    (Obs.Trace.Instant { name = "ghost"; cat = ""; ts = 0.0; tid = 1; args = [] });
  A.(check int) "no events when disabled" 0 (List.length (Obs.Trace.events ()))

let test_counter_aggregation () =
  with_tracing @@ fun () ->
  List.iter
    (fun (ts, v) ->
      Obs.Trace.emit
        (Obs.Trace.Counter
           { name = "q"; ts; tid = 3; values = [ ("len", v) ] }))
    [ (3.0, 30.0); (1.0, 10.0); (2.0, 20.0) ];
  let counters =
    List.filter_map
      (function
        | Obs.Trace.Counter { ts; values; _ } -> Some (ts, List.assoc "len" values)
        | _ -> None)
      (Obs.Trace.events ())
  in
  A.(check (list (pair (float feps) (float feps))))
    "counters sorted by ts with values intact"
    [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0) ]
    counters;
  A.(check (float feps)) "aggregate" 60.0
    (List.fold_left (fun a (_, v) -> a +. v) 0.0 counters)

(* Systhreads share their domain's buffer: a thread switch landing on
   an append must not drop an event. *)
let test_threads_share_domain_buffer () =
  with_tracing @@ fun () ->
  let emit_spans () =
    for _ = 1 to 10_000 do
      Obs.Trace.with_span "threaded" ignore
    done
  in
  List.iter Thread.join (List.init 4 (fun _ -> Thread.create emit_spans ()));
  A.(check int) "every span recorded" 40_000
    (List.length (spans_named "threaded" (Obs.Trace.events ())))

let test_flow_ids_unique () =
  let a = Obs.Trace.next_flow_id () in
  let b = Obs.Trace.next_flow_id () in
  A.(check bool) "distinct flow ids" true (a <> b)

(* --- Chrome trace export: parse it back --- *)

let test_chrome_trace_wellformed () =
  with_tracing @@ fun () ->
  Obs.Trace.set_thread_name ~tid:7 "copy 7";
  Obs.Trace.with_span ~cat:"compiler" ~args:[ ("n", Obs.Trace.Aint 3) ]
    "phase" (fun () -> ());
  Obs.Trace.emit
    (Obs.Trace.Counter { name = "q"; ts = 0.5; tid = 7; values = [ ("len", 2.0) ] });
  let id = Obs.Trace.next_flow_id () in
  Obs.Trace.emit (Obs.Trace.Flow_start { name = "buf"; id; ts = 0.1; tid = 7 });
  Obs.Trace.emit (Obs.Trace.Flow_end { name = "buf"; id; ts = 0.2; tid = 7 });
  let doc = J.parse (J.to_string (Obs.Chrome_trace.to_json (Obs.Trace.events ()))) in
  let evs = J.to_list (J.member "traceEvents" doc) in
  A.(check bool) "has events" true (List.length evs >= 5);
  List.iter
    (fun e ->
      ignore (J.to_str (J.member "name" e));
      ignore (J.to_int (J.member "pid" e));
      ignore (J.to_int (J.member "tid" e));
      let ph = J.to_str (J.member "ph" e) in
      match ph with
      | "X" ->
          A.(check bool) "span has ts>=0" true (J.to_float (J.member "ts" e) >= 0.0);
          A.(check bool) "span has dur>=0" true (J.to_float (J.member "dur" e) >= 0.0)
      | "C" -> ignore (J.member "args" e)
      | "s" | "f" -> ignore (J.to_int (J.member "id" e))
      | "M" | "i" -> ()
      | _ -> A.fail ("unexpected phase " ^ ph))
    evs;
  let phases =
    List.filter (fun e -> J.to_str (J.member "ph" e) = "X") evs
  in
  A.(check int) "one complete span" 1 (List.length phases);
  let metas =
    List.filter
      (fun e ->
        J.to_str (J.member "ph" e) = "M"
        && J.to_str (J.member "name" e) = "thread_name")
      evs
  in
  A.(check bool) "thread metadata present" true (List.length metas >= 1)

(* --- runtime invariants --- *)

let buffer_of packet n = Filter.make_buffer ~packet (Bytes.make n 'x')

(* Run on a backend via the unified API, raising on failure. *)
let run_exn backend ?queue_capacity topo =
  Supervisor.ok_exn (Runtime.run_result ~backend ?queue_capacity topo)

let counting_source ?(cost = 10.0) ?(size = 8) n _copy =
  let i = ref 0 in
  {
    Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          incr i;
          Some (buffer_of p size, cost)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

(* A pass-through with zero init cost and a fixed per-item cost, so the
   sim's busy + stall = makespan bound is exact. *)
let relay ?(cost = 25.0) name _copy =
  {
    Filter.name;
    init = (fun () -> 0.0);
    process = (fun b -> (Some b, cost));
    on_eos = (fun b -> (b, 0.0));
    finalize = (fun () -> (None, 0.0));
  }

let absorbing_sink ?(cost = 5.0) name _copy =
  {
    Filter.name;
    init = (fun () -> 0.0);
    process = (fun _ -> (None, cost));
    on_eos = (fun _ -> (None, 0.0));
    finalize = (fun () -> (None, 0.0));
  }

let topo3 ?(widths = (1, 2, 1)) ?(n = 40) () =
  let w1, w2, w3 = widths in
  Topology.create
    ~stages:
      [
        {
          Topology.stage_name = "src";
          width = w1;
          power = 100.0;
          role = Topology.Source (counting_source n);
        };
        {
          Topology.stage_name = "mid";
          width = w2;
          power = 100.0;
          role = Topology.Inner (relay "mid");
        };
        {
          Topology.stage_name = "sink";
          width = w3;
          power = 100.0;
          role = Topology.Sink (absorbing_sink "sink");
        };
      ]
    ~links:
      [
        { Topology.bandwidth = 1000.0; latency = 0.0 };
        { Topology.bandwidth = 1000.0; latency = 0.0 };
      ]

let test_sim_invariants () =
  let n = 40 in
  let m = run_exn Runtime.Sim (topo3 ~n ()) in
  let open Engine in
  A.(check bool) "positive makespan" true (m.elapsed_s > 0.0);
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun k busy ->
          let name = m.stage_names.(s) in
          A.(check bool)
            (Printf.sprintf "%s/%d queue wait >= 0" name k)
            true
            (m.queue_wait_s.(s).(k) >= 0.0);
          A.(check bool)
            (Printf.sprintf "%s/%d busy + stall <= makespan" name k)
            true
            (busy +. m.stall_pop_s.(s).(k) <= m.elapsed_s +. 1e-9))
        row)
    m.busy_s;
  (* items conserved across links: src produced = mid processed = sink
     processed (relay forwards every data buffer) *)
  let totals = Array.map (Array.fold_left ( + ) 0) m.items in
  A.(check (array int)) "items conserved" [| n; n; n |] totals;
  (* each link moved at least the data buffers *)
  match m.link_stats with
  | None -> A.fail "sim metrics must carry link stats"
  | Some links ->
      Array.iter
        (fun lm ->
          A.(check bool) "transfers cover data items" true
            (lm.lm_transfers >= n);
          A.(check bool) "link wait >= 0" true (lm.lm_wait >= 0.0))
        links

let test_sim_stall_detects_bottleneck () =
  (* sink 10x slower than the producer: its stall should be ~0 while the
     mid stage mostly waits... actually the slow sink backs nothing up in
     an unbounded sim queue; instead verify the slow copy is busy nearly
     the whole makespan and the fast stages stall. *)
  let n = 40 in
  let t =
    Topology.create
      ~stages:
        [
          {
            Topology.stage_name = "src";
            width = 1;
            power = 100.0;
            role = Topology.Source (counting_source ~cost:1.0 n);
          };
          {
            Topology.stage_name = "mid";
            width = 1;
            power = 100.0;
            role = Topology.Inner (relay ~cost:1.0 "mid");
          };
          {
            Topology.stage_name = "sink";
            width = 1;
            power = 100.0;
            role = Topology.Sink (absorbing_sink ~cost:100.0 "sink");
          };
        ]
      ~links:
        [
          { Topology.bandwidth = 1e6; latency = 0.0 };
          { Topology.bandwidth = 1e6; latency = 0.0 };
        ]
  in
  let m = run_exn Runtime.Sim t in
  let open Engine in
  A.(check bool) "sink dominates makespan" true
    (m.busy_s.(2).(0) >= 0.9 *. m.elapsed_s);
  (* the fast mid finishes early: its idle gap shows up as queue wait on
     the sink, not stall on mid *)
  A.(check bool) "sink queue wait large" true
    (m.queue_wait_s.(2).(0) > m.queue_wait_s.(1).(0))

let test_par_invariants () =
  let n = 40 in
  let m = run_exn Runtime.Par ~queue_capacity:4 (topo3 ~n ()) in
  let open Engine in
  A.(check bool) "positive wall time" true (m.elapsed_s > 0.0);
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun k busy ->
          let total =
            busy +. m.stall_push_s.(s).(k) +. m.stall_pop_s.(s).(k)
          in
          (* measurement overhead (mutex hand-off outside the clocks) is
             real but small; allow 25% slack plus a constant *)
          A.(check bool)
            (Printf.sprintf "stage %d/%d busy+stalls <= wall" s k)
            true
            (total <= (m.elapsed_s *. 1.25) +. 0.05))
        row)
    m.busy_s;
  (* conservation: data items sent by stage s = data items processed by
     stage s+1 *)
  let sum = Array.fold_left ( + ) 0 in
  A.(check int) "src out = mid in" (sum m.items_out.(0)) (sum m.items.(1));
  A.(check int) "mid out = sink in" (sum m.items_out.(1)) (sum m.items.(2));
  A.(check int) "sink forwards nothing" 0 (sum m.items_out.(2));
  (* every push is one occupancy observation: data + finals + markers *)
  (match m.queue_occupancy with
  | None -> A.fail "par metrics must carry queue occupancy"
  | Some occupancy ->
      Array.iteri
        (fun s hists ->
          if s > 0 then begin
            let pushes =
              Array.fold_left (fun a h -> a + Obs.Hist.count h) 0 hists
            in
            A.(check bool)
              (Printf.sprintf "stage %d occupancy observed" s)
              true
              (pushes >= sum m.items.(s))
          end)
        occupancy);
  (* bytes counters: every data buffer is 8 bytes *)
  A.(check bool) "src bytes counted" true
    (Array.fold_left ( +. ) 0.0 m.bytes_out.(0) >= float_of_int (8 * n))

let test_sim_par_items_agree () =
  (* same topology shape, fresh filter instances for each executor *)
  let n = 30 in
  let sim = run_exn Runtime.Sim (topo3 ~n ~widths:(1, 2, 2) ()) in
  let par = run_exn Runtime.Par (topo3 ~n ~widths:(1, 2, 2) ()) in
  let sim_totals = Array.map (Array.fold_left ( + ) 0) sim.Engine.items in
  let par_totals = Array.map (Array.fold_left ( + ) 0) par.Engine.items in
  A.(check (array int)) "sim and par item counts equal" sim_totals par_totals

let test_runtimes_emit_spans () =
  with_tracing @@ fun () ->
  let n = 10 in
  ignore (run_exn Runtime.Sim (topo3 ~n ~widths:(1, 1, 1) ()));
  ignore (run_exn Runtime.Par (topo3 ~n ~widths:(1, 1, 1) ()));
  let evs = Obs.Trace.events () in
  let spans_cat cat =
    List.filter
      (function Obs.Trace.Span { cat = c; _ } -> c = cat | _ -> false)
      evs
  in
  A.(check bool) "sim spans present" true (List.length (spans_cat "sim") >= n);
  A.(check bool) "par spans present" true (List.length (spans_cat "par") >= n);
  (* at least one span per filter copy in each runtime *)
  let topo = topo3 ~n ~widths:(1, 1, 1) () in
  List.iter
    (fun cat ->
      for s = 0 to 2 do
        let tid = Topology.copy_tid topo ~stage:s ~copy:0 in
        A.(check bool)
          (Printf.sprintf "%s span on tid %d" cat tid)
          true
          (List.exists
             (function
               | Obs.Trace.Span { tid = t; cat = c; _ } -> t = tid && c = cat
               | _ -> false)
             evs)
      done)
    [ "sim"; "par" ];
  (* flow events pair up *)
  let ids ctor =
    List.filter_map ctor evs |> List.sort_uniq compare
  in
  let starts =
    ids (function Obs.Trace.Flow_start { id; _ } -> Some id | _ -> None)
  in
  let ends =
    ids (function Obs.Trace.Flow_end { id; _ } -> Some id | _ -> None)
  in
  A.(check (list int)) "flow starts match ends" starts ends;
  (* Batched or not, every sim transfer is one [xfer] span with one flow
     arrow. *)
  Obs.Trace.clear ();
  ignore
    (Supervisor.ok_exn
       (Runtime.run_result ~backend:Runtime.Sim ~stage_batch:[| 8; 8; 1 |]
          (topo3 ~n ~widths:(1, 1, 1) ())));
  let evs = Obs.Trace.events () in
  let links =
    List.filter_map
      (function
        | Obs.Trace.Span { cat = "link"; name; _ } -> Some name | _ -> None)
      evs
  in
  A.(check bool) "batched sim run moved data" true (links <> []);
  A.(check (list string))
    "every link span is an xfer"
    (List.map (fun _ -> "xfer") links)
    links;
  A.(check int) "one flow arrow per transfer" (List.length links)
    (List.length
       (List.filter (function Obs.Trace.Flow_start _ -> true | _ -> false) evs))

(* --- Hist percentiles --- *)

let test_hist_percentiles () =
  (* bounds at every integer 1..100, observations 1..100: the quantile
     estimate is the bucket upper bound holding that rank *)
  let bounds = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = Obs.Hist.create ~bounds in
  for v = 1 to 100 do
    Obs.Hist.observe h (float_of_int v)
  done;
  A.(check (float 1.0)) "p50" 50.0 (Obs.Hist.p50 h);
  A.(check (float 1.0)) "p95" 95.0 (Obs.Hist.p95 h);
  A.(check (float 1.0)) "p99" 99.0 (Obs.Hist.p99 h);
  (* empty histogram: percentiles are 0, not NaN *)
  let e = Obs.Hist.create ~bounds:[| 1.0 |] in
  A.(check (float feps)) "empty p99" 0.0 (Obs.Hist.p99 e)

(* --- Timeseries ring --- *)

let test_timeseries_ring () =
  let ts = Obs.Timeseries.create ~capacity:4 ~interval_s:0.01 ~columns:[| "a"; "b" |] () in
  A.(check (float feps)) "interval" 0.01 (Obs.Timeseries.interval_s ts);
  A.(check int) "empty" 0 (Obs.Timeseries.length ts);
  for i = 0 to 5 do
    Obs.Timeseries.sample ts ~ts:(float_of_int i *. 0.01)
      [| float_of_int i; float_of_int (10 * i) |]
  done;
  (* 6 samples into a 4-row ring: the oldest 2 are gone *)
  A.(check int) "retained" 4 (Obs.Timeseries.length ts);
  A.(check int) "dropped" 2 (Obs.Timeseries.dropped ts);
  let rows = Obs.Timeseries.rows ts in
  A.(check (list (float feps))) "oldest-first timestamps"
    [ 0.02; 0.03; 0.04; 0.05 ]
    (List.map fst rows);
  let t0, v0 = Obs.Timeseries.nth ts 0 in
  A.(check (float feps)) "nth 0 ts" 0.02 t0;
  A.(check (array (float feps))) "nth 0 values" [| 2.0; 20.0 |] v0;
  (* JSON carries samples as [ts, v...] rows plus the drop count *)
  let j = J.parse (J.to_string (Obs.Timeseries.to_json ts)) in
  A.(check int) "json dropped" 2 (J.to_int (J.member "dropped" j));
  A.(check int) "json columns" 2 (List.length (J.to_list (J.member "columns" j)));
  let samples = J.to_list (J.member "samples" j) in
  A.(check int) "json samples" 4 (List.length samples);
  List.iter
    (fun row -> A.(check int) "row arity = 1 + columns" 3 (List.length (J.to_list row)))
    samples

let test_timeseries_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> A.fail "expected Invalid_argument"
  in
  raises (fun () ->
      Obs.Timeseries.create ~capacity:0 ~interval_s:0.01 ~columns:[| "a" |] ());
  raises (fun () -> Obs.Timeseries.create ~interval_s:0.01 ~columns:[||] ());
  raises (fun () -> Obs.Timeseries.create ~interval_s:0.0 ~columns:[| "a" |] ());
  let ts = Obs.Timeseries.create ~interval_s:1.0 ~columns:[| "a" |] () in
  raises (fun () -> Obs.Timeseries.sample ts ~ts:0.0 [| 1.0; 2.0 |])

(* --- OpenMetrics --- *)

let test_openmetrics_roundtrip () =
  let h = Obs.Hist.create ~bounds:[| 1.0; 2.0 |] in
  List.iter (Obs.Hist.observe h) [ 0.5; 1.5; 3.0 ];
  let fams =
    [
      Obs.Openmetrics.Gauge
        {
          name = "cgpp_busy_seconds";
          help = "per-copy busy time";
          samples =
            [
              { Obs.Openmetrics.labels = [ ("copy", "S1/0") ]; value = 0.25 };
              (* label values need escaping: backslash, quote, newline *)
              { Obs.Openmetrics.labels = [ ("copy", "a\\b\"c\nd") ]; value = 1.5 };
            ];
        };
      Obs.Openmetrics.Counter
        {
          name = "cgpp_items_total";
          help = "items processed";
          samples = [ { Obs.Openmetrics.labels = []; value = 40.0 } ];
        };
      Obs.Openmetrics.Histogram
        { name = "cgpp_q"; help = "queue occupancy"; labels = [ ("stage", "1") ]; hist = h };
    ]
  in
  let text = Obs.Openmetrics.to_string fams in
  A.(check bool) "has EOF" true (Astring.String.is_infix ~affix:"# EOF" text);
  A.(check bool) "has HELP" true (Astring.String.is_infix ~affix:"# HELP cgpp_busy_seconds" text);
  let back = Obs.Openmetrics.parse_back text in
  let find name labels =
    match
      List.find_opt (fun (n, ls, _) -> n = name && ls = labels) back
    with
    | Some (_, _, v) -> v
    | None -> A.fail (Printf.sprintf "series %s not parsed back" name)
  in
  A.(check (float feps)) "gauge survives" 0.25
    (find "cgpp_busy_seconds" [ ("copy", "S1/0") ]);
  (* the renderer escapes backslash, quote and newline so the line stays
     one sample line; the minimal parser keeps the escaped spelling *)
  A.(check bool) "label value escaped in text" true
    (Astring.String.is_infix ~affix:"copy=\"a\\\\b\\\"c\\nd\"" text);
  A.(check (float feps)) "escaped label survives" 1.5
    (find "cgpp_busy_seconds" [ ("copy", "a\\\\b\\\"c\\nd") ]);
  A.(check (float feps)) "counter survives" 40.0 (find "cgpp_items_total" []);
  (* histogram expands to cumulative buckets + sum + count *)
  A.(check (float feps)) "bucket le=1" 1.0
    (find "cgpp_q_bucket" [ ("stage", "1"); ("le", "1") ]);
  A.(check (float feps)) "bucket le=+Inf" 3.0
    (find "cgpp_q_bucket" [ ("stage", "1"); ("le", "+Inf") ]);
  A.(check (float feps)) "hist count" 3.0 (find "cgpp_q_count" [ ("stage", "1") ]);
  A.(check (float feps)) "hist sum" 5.0 (find "cgpp_q_sum" [ ("stage", "1") ]);
  (* malformed documents are rejected *)
  (match Obs.Openmetrics.parse_back "cgpp_x 1\n" with
  | exception Failure _ -> ()
  | _ -> A.fail "missing # EOF must be rejected");
  (* sanitize_name maps arbitrary labels into the metric alphabet *)
  A.(check string) "sanitize" "S1_0:busy_s"
    (Obs.Openmetrics.sanitize_name "S1/0:busy s")

let test_openmetrics_of_timeseries () =
  let ts = Obs.Timeseries.create ~interval_s:0.05 ~columns:[| "S1/0:busy_s" |] () in
  Obs.Timeseries.sample ts ~ts:0.05 [| 0.04 |];
  Obs.Timeseries.sample ts ~ts:0.10 [| 0.05 |];
  let back =
    Obs.Openmetrics.parse_back
      (Obs.Openmetrics.to_string (Obs.Openmetrics.families_of_timeseries ts))
  in
  let series name = List.filter (fun (n, _, _) -> n = name) back in
  A.(check int) "one sample per retained row" 2
    (List.length (series "cgpp_S1_0:busy_s"));
  (match series "cgpp_sample_interval_seconds" with
  | [ (_, _, v) ] -> A.(check (float feps)) "interval metadata" 0.05 v
  | _ -> A.fail "expected one interval series");
  (match series "cgpp_samples_dropped_total" with
  | [ (_, _, v) ] -> A.(check (float feps)) "dropped metadata" 0.0 v
  | _ -> A.fail "expected one dropped series");
  (* every column sample is labeled with its timestamp *)
  List.iter
    (fun (_, labels, _) ->
      A.(check bool) "ts label present" true (List.mem_assoc "ts" labels))
    (series "cgpp_S1_0:busy_s")

let test_openmetrics_write_file_mkdirs () =
  (* exporters create missing parent directories (same promise as
     --trace/--metrics-json/--openmetrics in the CLI) *)
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgpp_obs_test_%d" (Unix.getpid ()))
  in
  let path = Filename.concat (Filename.concat base "nested/deeper") "om.txt" in
  let fams =
    [
      Obs.Openmetrics.Gauge
        {
          name = "cgpp_x";
          help = "x";
          samples = [ { Obs.Openmetrics.labels = []; value = 1.0 } ];
        };
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote base))))
    (fun () ->
      Obs.Openmetrics.write_file path fams;
      A.(check bool) "file created in nested dir" true (Sys.file_exists path);
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Openmetrics.parse_back text with
      | [ ("cgpp_x", [], v) ] -> A.(check (float feps)) "value" 1.0 v
      | _ -> A.fail "unexpected parse-back of written file")

(* --- sampler determinism on the sim backend --- *)

let test_sim_sampler_determinism () =
  (* the sim samples on its virtual clock, so two runs of the same
     topology produce bit-identical series: same row count, timestamps
     at exact interval multiples, same values *)
  let run () =
    let m =
      Supervisor.ok_exn
        (Runtime.run_result ~backend:Runtime.Sim ~metrics_interval_s:0.01
           (topo3 ~n:40 ()))
    in
    match m.Engine.timeseries with
    | Some ts -> ts
    | None -> A.fail "sim run with an interval must carry a timeseries"
  in
  let a = run () in
  let b = run () in
  A.(check bool) "sampler produced rows" true (Obs.Timeseries.length a > 0);
  A.(check int) "row counts equal" (Obs.Timeseries.length a)
    (Obs.Timeseries.length b);
  A.(check (array string)) "columns equal" (Obs.Timeseries.columns a)
    (Obs.Timeseries.columns b);
  List.iter2
    (fun (ta, va) (tb, vb) ->
      A.(check (float feps)) "timestamps equal" ta tb;
      A.(check (array (float feps))) "values equal" va vb;
      (* virtual-time sampling lands on exact interval multiples *)
      let k = Float.round (ta /. 0.01) in
      A.(check (float 1e-6)) "ts is an interval multiple" (k *. 0.01) ta)
    (Obs.Timeseries.rows a) (Obs.Timeseries.rows b)

(* --- worker trace shipping --- *)

let test_trace_shipping () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span "local" (fun () -> ());
  (* a worker ships its buffered events; they keep their own pid *)
  Obs.Trace.emit_shipped ~pid:4242
    [
      Obs.Trace.Span
        { name = "remote"; cat = "proc"; ts = 0.1; dur = 0.2; tid = 5; args = [] };
      Obs.Trace.Thread_name { tid = 5; name = "copy S1/0" };
    ];
  Obs.Trace.name_process ~pid:4242 "cgpp worker S1/0";
  let pids =
    List.sort_uniq compare (List.map fst (Obs.Trace.events_with_pids ()))
  in
  A.(check (list int)) "local + shipped pids" [ Obs.Trace.local_pid; 4242 ] pids;
  A.(check bool) "process name registered" true
    (List.mem (4242, "cgpp worker S1/0") (Obs.Trace.process_names ()));
  (* the multi-process exporter attributes events to their pid and
     emits process_name metadata for each *)
  let doc =
    J.parse
      (J.to_string
         (Obs.Chrome_trace.to_json_multi ~process_name:"cgppc"
            ~process_names:(Obs.Trace.process_names ())
            (Obs.Trace.events_with_pids ())))
  in
  let evs = J.to_list (J.member "traceEvents" doc) in
  let remote_span =
    List.find_opt
      (fun e ->
        J.to_str (J.member "ph" e) = "X"
        && J.to_str (J.member "name" e) = "remote")
      evs
  in
  (match remote_span with
  | Some e -> A.(check int) "shipped span keeps worker pid" 4242 (J.to_int (J.member "pid" e))
  | None -> A.fail "shipped span missing from export");
  let proc_names =
    List.filter_map
      (fun e ->
        if
          J.to_str (J.member "ph" e) = "M"
          && J.to_str (J.member "name" e) = "process_name"
        then
          Some
            ( J.to_int (J.member "pid" e),
              J.to_str (J.member "name" (J.member "args" e)) )
        else None)
      evs
  in
  A.(check bool) "worker process_name metadata" true
    (List.mem (4242, "cgpp worker S1/0") proc_names);
  A.(check bool) "parent process_name metadata" true
    (List.mem (Obs.Trace.local_pid, "cgppc") proc_names)

let suite =
  [
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json special floats", `Quick, test_json_special_floats);
    ("json errors", `Quick, test_json_errors);
    ("json surrogate pairs", `Quick, test_json_surrogates);
    ("hist buckets", `Quick, test_hist_buckets);
    ("hist occupancy bounds", `Quick, test_hist_occupancy_bounds);
    ("span nesting", `Quick, test_span_nesting);
    ("span on exception", `Quick, test_span_records_on_exception);
    ("disabled records nothing", `Quick, test_disabled_records_nothing);
    ("counter aggregation", `Quick, test_counter_aggregation);
    ("threads share a domain's buffer", `Quick, test_threads_share_domain_buffer);
    ("flow ids unique", `Quick, test_flow_ids_unique);
    ("chrome trace well-formed", `Quick, test_chrome_trace_wellformed);
    ("sim invariants", `Quick, test_sim_invariants);
    ("sim stall finds bottleneck", `Quick, test_sim_stall_detects_bottleneck);
    ("par invariants", `Quick, test_par_invariants);
    ("sim/par items agree", `Quick, test_sim_par_items_agree);
    ("runtimes emit spans", `Quick, test_runtimes_emit_spans);
    ("hist percentiles", `Quick, test_hist_percentiles);
    ("timeseries ring", `Quick, test_timeseries_ring);
    ("timeseries validation", `Quick, test_timeseries_validation);
    ("openmetrics roundtrip", `Quick, test_openmetrics_roundtrip);
    ("openmetrics of timeseries", `Quick, test_openmetrics_of_timeseries);
    ("openmetrics write_file mkdirs", `Quick, test_openmetrics_write_file_mkdirs);
    ("sim sampler determinism", `Quick, test_sim_sampler_determinism);
    ("trace shipping", `Quick, test_trace_shipping);
  ]

let () = Alcotest.run "obs" [ ("obs", suite) ]
