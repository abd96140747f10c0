(* Tests for the DataCutter-style runtimes: the discrete-event cluster
   simulator and the domain-based parallel executor. *)

module A = Alcotest
open Datacutter

(* Unified-runtime helpers: run on a backend, raising on failure. *)
let run_exn backend topo = Supervisor.ok_exn (Runtime.run_result ~backend topo)

let sim_run topo = run_exn Runtime.Sim topo
let par_run topo = run_exn Runtime.Par topo

let buffer_of_string packet s =
  Filter.make_buffer ~packet (Bytes.of_string s)

(* A source producing [n] one-byte packets at [cost] weighted ops each. *)
let counting_source ?(cost = 10.0) n _copy =
  let i = ref 0 in
  {
    Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          incr i;
          Some (buffer_of_string p (String.make 8 'x'), cost)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

(* Sources that split packets round-robin across copies. *)
let sharded_source n width copy =
  let i = ref copy in
  {
    Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          i := !i + width;
          Some (buffer_of_string p (String.make 8 'x'), 10.0)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

let topo3 ?(widths = (1, 1, 1)) ?(power = 100.0) ?(bandwidth = 1000.0)
    ?(latency = 0.0) ~source ~inner ~sink () =
  let w1, w2, w3 = widths in
  Topology.create
    ~stages:
      [
        { Topology.stage_name = "src"; width = w1; power; role = Topology.Source source };
        { Topology.stage_name = "mid"; width = w2; power; role = Topology.Inner inner };
        { Topology.stage_name = "sink"; width = w3; power; role = Topology.Sink sink };
      ]
    ~links:
      [
        { Topology.bandwidth; latency };
        { Topology.bandwidth; latency };
      ]

let test_all_packets_delivered () =
  let received = ref 0 in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process =
        (fun _ ->
          incr received;
          (None, 1.0));
    }
  in
  let topo =
    topo3 ~source:(counting_source 17)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let m = sim_run topo in
  A.(check int) "all packets reach sink" 17 !received;
  A.(check bool) "positive makespan" true (m.Engine.elapsed_s > 0.0)

let test_makespan_bottleneck_scaling () =
  (* source at 10 ops/packet, middle at 100 ops/packet: middle is the
     bottleneck; makespan ~ n * 100/power *)
  let inner _ =
    {
      (Filter.pass_through "mid") with
      Filter.process = (fun b -> (Some b, 100.0));
    }
  in
  let sink _ = Filter.pass_through "sink" in
  let n = 50 in
  let topo = topo3 ~power:100.0 ~bandwidth:1e9 ~source:(counting_source n) ~inner ~sink () in
  let m = sim_run topo in
  let expected = float_of_int n *. (100.0 /. 100.0) in
  A.(check bool) "makespan close to bottleneck bound" true
    (m.Engine.elapsed_s >= expected
    && m.Engine.elapsed_s < expected *. 1.2)

let test_transparent_copies_speedup () =
  let inner _ =
    {
      (Filter.pass_through "mid") with
      Filter.process = (fun b -> (Some b, 100.0));
    }
  in
  let sink _ = Filter.pass_through "sink" in
  let n = 40 in
  let run w =
    let topo =
      topo3 ~widths:(w, w, 1) ~power:100.0 ~bandwidth:1e9
        ~source:(sharded_source n w) ~inner ~sink ()
    in
    (sim_run topo).Engine.elapsed_s
  in
  let t1 = run 1 and t2 = run 2 and t4 = run 4 in
  A.(check bool) "2 copies ~2x" true (t1 /. t2 > 1.7);
  A.(check bool) "4 copies ~4x" true (t1 /. t4 > 3.2)

let test_round_robin_balance () =
  let topo =
    topo3 ~widths:(1, 4, 1) ~power:100.0 ~bandwidth:1e9
      ~source:(counting_source 40)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink:(fun _ -> Filter.pass_through "sink")
      ()
  in
  let m = sim_run topo in
  Array.iter (fun items -> A.(check int) "balanced" 10 items) m.Engine.items.(1)

let test_link_bytes_accounting () =
  let topo =
    topo3 ~bandwidth:1000.0 ~source:(counting_source 10)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink:(fun _ -> Filter.pass_through "sink")
      ()
  in
  let m = sim_run topo in
  (* 10 packets x 8 bytes + 1 marker byte *)
  A.(check (float 0.01)) "link0 bytes" 81.0 (Runtime.total_bytes m /. 2.0)

let test_slow_link_dominates () =
  let run bw =
    let topo =
      topo3 ~power:1e9 ~bandwidth:bw ~source:(counting_source 20)
        ~inner:(fun _ -> Filter.pass_through "mid")
        ~sink:(fun _ -> Filter.pass_through "sink")
        ()
    in
    (sim_run topo).Engine.elapsed_s
  in
  A.(check bool) "slower link slower run" true (run 100.0 > run 10000.0 *. 2.0)

let test_latency_increases_makespan () =
  let run latency =
    let topo =
      topo3 ~power:1e9 ~bandwidth:1e9 ~latency ~source:(counting_source 20)
        ~inner:(fun _ -> Filter.pass_through "mid")
        ~sink:(fun _ -> Filter.pass_through "sink")
        ()
    in
    (sim_run topo).Engine.elapsed_s
  in
  let t0 = run 0.0 and t1 = run 0.01 in
  (* 20 packets x 2 links x 10ms, pipelined: at least one link's worth *)
  A.(check bool) "latency visible" true (t1 -. t0 > 0.15)

let test_eos_payload_merge () =
  (* each middle copy accumulates a count; sink sums the partials *)
  let inner _ =
    let count = ref 0 in
    {
      Filter.name = "mid";
      init = (fun () -> 0.0);
      process =
        (fun _ ->
          incr count;
          (None, 1.0));
      on_eos = (fun p -> (p, 0.0));
      finalize =
        (fun () ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int !count);
          (Some (Filter.make_buffer ~packet:(-1) b), 1.0));
    }
  in
  let total = ref 0 in
  let sink _ =
    {
      Filter.name = "sink";
      init = (fun () -> 0.0);
      process = (fun _ -> (None, 0.0));
      on_eos =
        (fun p ->
          (match p with
          | Some b -> total := !total + Int64.to_int (Bytes.get_int64_le b.Filter.data 0)
          | None -> ());
          (None, 0.0));
      finalize = (fun () -> (None, 0.0));
    }
  in
  let topo =
    topo3 ~widths:(2, 3, 1) ~source:(sharded_source 31 2) ~inner ~sink ()
  in
  ignore (sim_run topo);
  A.(check int) "partials sum to packet count" 31 !total

let test_source_finalize_payload () =
  (* a source that carries reduction state of its own *)
  let source _ =
    let i = ref 0 in
    {
      Filter.src_name = "src";
      next =
        (fun () ->
          if !i >= 5 then None
          else begin
            incr i;
            Some (buffer_of_string !i "data", 1.0)
          end);
      src_finalize =
        (fun () ->
          (Some (Filter.make_buffer ~packet:(-1) (Bytes.of_string "partial")), 1.0));
    }
  in
  let got = ref "" in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.on_eos =
        (fun p ->
          (match p with
          | Some b -> got := Bytes.to_string b.Filter.data
          | None -> ());
          (None, 0.0));
    }
  in
  let topo = topo3 ~source ~inner:(fun _ -> Filter.pass_through "mid") ~sink () in
  ignore (sim_run topo);
  A.(check string) "payload forwarded through middle" "partial" !got

let test_collecting_sink_helper () =
  let filter, get = Filter.collecting_sink "s" in
  ignore (filter.Filter.process (buffer_of_string 0 "a"));
  ignore (filter.Filter.on_eos (Some (buffer_of_string (-1) "b")));
  A.(check int) "collected" 2 (List.length (get ()))

let test_topology_validation () =
  let bad_role () =
    Topology.create
      ~stages:
        [
          { Topology.stage_name = "a"; width = 1; power = 1.0;
            role = Topology.Inner (fun _ -> Filter.pass_through "x") };
        ]
      ~links:[]
  in
  A.check_raises "first must be source"
    (Invalid_argument "Topology.create: first stage must be a Source")
    (fun () -> ignore (bad_role ()))

(* --- parallel runtime --- *)

let test_par_runtime_counts () =
  let received = ref 0 in
  let mutex = Mutex.create () in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process =
        (fun _ ->
          Mutex.lock mutex;
          incr received;
          Mutex.unlock mutex;
          (None, 0.0));
    }
  in
  let topo =
    topo3 ~widths:(2, 2, 1) ~source:(sharded_source 24 2)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink ()
  in
  let m = par_run topo in
  A.(check int) "all packets" 24 !received;
  A.(check bool) "wall time sane" true (m.Engine.elapsed_s >= 0.0)

let test_par_eos_payload () =
  let inner _ =
    let count = ref 0 in
    {
      Filter.name = "mid";
      init = (fun () -> 0.0);
      process =
        (fun _ ->
          incr count;
          (None, 0.0));
      on_eos = (fun p -> (p, 0.0));
      finalize =
        (fun () ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int !count);
          (Some (Filter.make_buffer ~packet:(-1) b), 0.0));
    }
  in
  let total = ref 0 in
  let mutex = Mutex.create () in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.on_eos =
        (fun p ->
          (match p with
          | Some b ->
              Mutex.lock mutex;
              total := !total + Int64.to_int (Bytes.get_int64_le b.Filter.data 0);
              Mutex.unlock mutex
          | None -> ());
          (None, 0.0));
    }
  in
  let topo = topo3 ~widths:(2, 2, 1) ~source:(sharded_source 19 2) ~inner ~sink () in
  ignore (par_run topo);
  A.(check int) "partials sum" 19 !total

(* --- Bqueue close-while-blocked (graceful shutdown) --- *)

(* [close] must wake every blocked pusher and popper exactly once
   (each raises [Closed] instead of hanging), and must never drop an
   item that was already enqueued: poppers drain the backlog first and
   only then see [Closed]. *)
let test_bqueue_close_wakes_blocked () =
  let stop = Atomic.make false in
  let capacity = 4 in
  let q : int Bqueue.t = Bqueue.create ~stop capacity in
  (* fill to capacity so pushers block *)
  for i = 0 to capacity - 1 do
    ignore (Bqueue.push q i)
  done;
  let n_pushers = 3 in
  let pushed = Atomic.make 0 in
  let pushers =
    List.init n_pushers (fun i ->
        Domain.spawn (fun () ->
            match Bqueue.push q (100 + i) with
            | _ ->
                Atomic.incr pushed;
                `Pushed
            | exception Bqueue.Closed -> `Closed
            | exception Bqueue.Aborted -> `Aborted))
  in
  (* give the pushers time to block on the full queue, then close *)
  Unix.sleepf 0.05;
  Bqueue.close q;
  let results = List.map Domain.join pushers in
  (* every blocked pusher woke exactly once and observed the close;
     none hung (join returned) and none slipped an item in *)
  List.iter
    (fun r -> A.(check bool) "blocked pusher raised Closed" true (r = `Closed))
    results;
  A.(check int) "no pusher slipped an item past close" 0 (Atomic.get pushed);
  A.(check int) "backlog intact after close" capacity (Bqueue.length q);
  (* push after close fails immediately *)
  (match Bqueue.push q 999 with
  | _ -> A.fail "push after close must raise Closed"
  | exception Bqueue.Closed -> ());
  (* the backlog enqueued before the close still drains in order *)
  for i = 0 to capacity - 1 do
    let x, _ = Bqueue.pop q in
    A.(check int) "drained in order" i x
  done;
  (* and only once empty does pop raise Closed *)
  match Bqueue.pop q with
  | _ -> A.fail "pop on drained closed queue must raise Closed"
  | exception Bqueue.Closed -> ()

let test_bqueue_close_wakes_poppers () =
  let stop = Atomic.make false in
  let q : int Bqueue.t = Bqueue.create ~stop 4 in
  let n_poppers = 4 in
  let poppers =
    List.init n_poppers (fun _ ->
        Domain.spawn (fun () ->
            match Bqueue.pop q with
            | x, _ -> `Got x
            | exception Bqueue.Closed -> `Closed
            | exception Bqueue.Aborted -> `Aborted))
  in
  Unix.sleepf 0.05;
  (* two items for four blocked poppers, then close: exactly two
     domains get an item, the other two wake once and raise Closed *)
  ignore (Bqueue.push q 1);
  ignore (Bqueue.push q 2);
  Bqueue.close q;
  let results = List.map Domain.join poppers in
  let got = List.filter (function `Got _ -> true | _ -> false) results in
  let closed = List.filter (( = ) `Closed) results in
  A.(check int) "every enqueued item delivered" 2 (List.length got);
  A.(check int) "remaining poppers woken with Closed" (n_poppers - 2)
    (List.length closed);
  A.(check bool) "close is idempotent" true
    (Bqueue.close q;
     true)

(* Close-while-batch-blocked: a pusher mid-[push_all] wave and a popper
   blocked in [pop_all] must both be woken exactly once by [close].
   The pusher's completed waves stay enqueued (accepted items are never
   dropped), the rest of its batch is refused with [Closed]; the popper
   drains the whole backlog in order and only then sees [Closed]. *)
let test_bqueue_close_while_batch_blocked () =
  let stop = Atomic.make false in
  let capacity = 4 in
  let q : int Bqueue.t = Bqueue.create ~stop capacity in
  (* a batch far larger than capacity and no consumer: the first wave
     fills the queue, then the pusher blocks mid-batch waiting for room *)
  let batch = List.init 32 Fun.id in
  let pusher =
    Domain.spawn (fun () ->
        match Bqueue.push_all q batch with
        | _ -> `Pushed
        | exception Bqueue.Closed -> `Closed
        | exception Bqueue.Aborted -> `Aborted)
  in
  Unix.sleepf 0.05;
  Bqueue.close q;
  (match Domain.join pusher with
  | `Closed -> ()
  | `Pushed -> A.fail "pusher blocked mid-batch must observe the close"
  | `Aborted -> A.fail "pusher saw Aborted, expected Closed");
  (* whatever prefix the completed waves accepted survives the close:
     pop_all drains it in order and raises Closed only once empty *)
  let rec drain acc =
    match Bqueue.pop_all q ~max:8 with
    | items, _ -> drain (acc @ items)
    | exception Bqueue.Closed -> acc
  in
  let got = drain [] in
  A.(check bool) "the first wave's items were delivered"
    true
    (List.length got >= 1);
  A.(check bool) "the refused tail was not enqueued" true
    (List.length got < List.length batch);
  A.(check (list int)) "delivered prefix in order"
    (List.filteri (fun i _ -> i < List.length got) batch)
    got;
  (* push_all after close is refused outright *)
  (match Bqueue.push_all q [ 99 ] with
  | _ -> A.fail "push_all after close must raise Closed"
  | exception Bqueue.Closed -> ());
  (* and a popper blocked inside pop_all on an empty queue is woken
     exactly once by close, observing Closed instead of hanging *)
  let q2 : int Bqueue.t = Bqueue.create ~stop capacity in
  let popper =
    Domain.spawn (fun () ->
        match Bqueue.pop_all q2 ~max:capacity with
        | _ -> `Got
        | exception Bqueue.Closed -> `Closed
        | exception Bqueue.Aborted -> `Aborted)
  in
  Unix.sleepf 0.05;
  Bqueue.close q2;
  match Domain.join popper with
  | `Closed -> ()
  | `Got -> A.fail "popper got items from an empty closed queue"
  | `Aborted -> A.fail "popper saw Aborted, expected Closed"

(* A control token never waits for room: [push_token] into a full
   queue returns at once and keeps FIFO order behind the backlog. *)
let test_bqueue_token_past_capacity () =
  let stop = Atomic.make false in
  let q : int Bqueue.t = Bqueue.create ~stop 2 in
  ignore (Bqueue.push q 0);
  ignore (Bqueue.push q 1);
  Bqueue.push_token q 2;
  A.(check int) "token enqueued past capacity" 3 (Bqueue.length q);
  List.iter
    (fun want ->
      let x, _ = Bqueue.pop q in
      A.(check int) "FIFO behind the backlog" want x)
    [ 0; 1; 2 ];
  Bqueue.close q;
  match Bqueue.push_token q 3 with
  | () -> A.fail "push_token after close must raise Closed"
  | exception Bqueue.Closed -> ()

(* A byte-bounded pop takes its first item whatever it costs, then
   whole items while their costs fit the bound; tokens and spilled
   segments keep their FIFO place, and the popped bytes leave the
   queue's accounting. *)
let test_bqueue_pop_bytes () =
  let stop = Atomic.make false in
  let q : string Bqueue.t = Bqueue.create ~cost:String.length ~stop 16 in
  List.iter
    (fun s -> ignore (Bqueue.push q s))
    [ String.make 10 'a'; "bb"; "ccc"; "dddd"; "e" ];
  let pop ?(max = max_int) q bytes = fst (Bqueue.pop_all q ~max ~bytes) in
  let mem q = (Bqueue.stats q).Bqueue.st_mem_bytes in
  A.(check (list string)) "one item even when it alone exceeds the bound"
    [ String.make 10 'a' ] (pop q 4);
  A.(check int) "its bytes leave the accounting" 10 (mem q);
  A.(check (list string)) "stops before exceeding the bound" [ "bb"; "ccc" ]
    (pop q 8);
  A.(check int) "bytes of what stays queued" 5 (mem q);
  A.(check (list string)) "the item cap still holds" [ "dddd" ] (pop ~max:1 q 100);
  Bqueue.push_token q "t";
  A.(check (list string)) "FIFO across a token" [ "e"; "t" ] (pop q 2);
  A.(check int) "accounting empty" 0 (mem q);
  A.(check int) "nothing left" 0 (Bqueue.length q);
  (* a spilling queue: the bound runs over refills from disk *)
  let dir = Spill.create_dir () in
  let spill = Bqueue.spill_config ~budget:8 ~dir ~encode:Fun.id ~decode:Fun.id in
  let q : string Bqueue.t = Bqueue.create ~cost:String.length ~spill ~stop 4 in
  (* 303 bytes each: the back buffer reaches the 4 KiB segment target *)
  let items = List.init 40 (fun i -> Printf.sprintf "i%02d%s" i (String.make 300 'x')) in
  let first, rest = List.partition (fun s -> s < "i20") items in
  List.iter (fun s -> ignore (Bqueue.push q s)) first;
  Bqueue.push_token q "tok";
  List.iter (fun s -> ignore (Bqueue.push q s)) rest;
  A.(check bool) "items spilled" true ((Bqueue.stats q).Bqueue.st_disk_items > 0);
  Bqueue.close q;
  let rec drain acc =
    match pop q 700 with
    | xs ->
        let bytes = List.fold_left (fun a s -> a + String.length s) 0 xs in
        if bytes > 700 then A.failf "a pop of %d items took %d bytes" (List.length xs) bytes;
        drain (List.rev_append xs acc)
    | exception Bqueue.Closed -> List.rev acc
  in
  A.(check (list string)) "FIFO across the token and the segments"
    (first @ [ "tok" ] @ rest) (drain []);
  let st = Bqueue.stats q in
  A.(check (pair int int)) "memory and disk accounting drained" (0, 0)
    (st.Bqueue.st_mem_bytes, st.Bqueue.st_disk_items);
  Spill.remove_dir dir

(* Domain ids only grow, so a probe domain spawned after a run gets an
   id one past the last domain the run spawned. *)
let probe_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

(* An all-local par run packs its copies onto min(nproc, copies)
   domains: the calling one and the rest spawned. *)
let test_par_domains_spawned () =
  let nproc = Domain.recommended_domain_count () in
  List.iter
    (fun widths ->
      let cfg = Apps.Streambench.tiny in
      let topo, results =
        Apps.Streambench.topology cfg ~widths ~powers:(Array.make 3 100.0)
          ~bandwidths:(Array.make 2 1e6) ()
      in
      let before = probe_domain_id () in
      ignore (par_run topo);
      let spawned = probe_domain_id () - before - 1 in
      let what =
        String.concat "-" (Array.to_list (Array.map string_of_int widths))
      in
      let copies = Array.fold_left ( + ) 0 widths in
      A.(check (pair int int))
        (what ^ " result") (Apps.Streambench.expected cfg) (results ());
      A.(check int) (what ^ " domains spawned") (min nproc copies - 1) spawned)
    [ [| 1; 1; 1 |]; [| 2; 2; 1 |]; [| 4; 4; 1 |] ]

(* Black-box placement: every filter records the domain it runs on, and
   the "runners" metrics section must say the same. *)
let test_par_placement () =
  let nproc = Domain.recommended_domain_count () in
  let caller = (Domain.self () :> int) in
  List.iter
    (fun (w1, w2) ->
      let what = Printf.sprintf "%d-%d-1" w1 w2 in
      let mu = Mutex.create () in
      let ran = Hashtbl.create 16 in
      let record label =
        let d = (Domain.self () :> int) in
        Mutex.lock mu;
        Hashtbl.replace ran label d;
        Mutex.unlock mu
      in
      let source copy =
        let s = sharded_source 40 w1 copy in
        let label = Printf.sprintf "src/%d" copy in
        { s with Filter.next = (fun () -> record label; s.Filter.next ()) }
      in
      let filter name copy =
        let f = Filter.pass_through name in
        let label = Printf.sprintf "%s/%d" name copy in
        { f with Filter.process = (fun b -> record label; f.Filter.process b) }
      in
      let topo =
        topo3 ~widths:(w1, w2, 1) ~source ~inner:(filter "mid")
          ~sink:(filter "sink") ()
      in
      let m = par_run topo in
      let on label =
        match Hashtbl.find_opt ran label with
        | Some d -> d
        | None -> A.failf "%s: %s never ran" what label
      in
      let domains =
        List.sort_uniq compare (Hashtbl.fold (fun _ d acc -> d :: acc) ran [])
      in
      A.(check bool)
        (what ^ ": at most nproc domains")
        true
        (List.length domains <= nproc);
      A.(check int) (what ^ ": sink on the calling domain") caller (on "sink/0");
      if w1 = 1 && w2 = 1 && nproc >= 2 then begin
        A.(check bool) "src and mid apart" true (on "src/0" <> on "mid/0");
        A.(check bool) "mid and sink apart" true (on "mid/0" <> on "sink/0")
      end;
      (* the section names the same hosts: "thread 0", the layout's
         host 0 on the calling domain, or a domain index, one index per
         domain that ran copies *)
      let section =
        match List.assoc_opt "runners" m.Engine.extra with
        | Some s -> s
        | None -> A.failf "%s: no runners section" what
      in
      A.(check int)
        (what ^ ": runners.domains")
        (min nproc (w1 + w2 + 1))
        (match Obs.Json.member "domains" section with
        | Obs.Json.Int n -> n
        | _ -> A.failf "%s: runners.domains is not an int" what);
      let hosts =
        match Obs.Json.member "copies" section with
        | Obs.Json.Obj kvs -> kvs
        | _ -> A.failf "%s: runners.copies is not an object" what
      in
      A.(check int) (what ^ ": a host per copy") (w1 + w2 + 1)
        (List.length hosts);
      List.iter
        (fun (l, h) ->
          List.iter
            (fun (l', h') ->
              A.(check bool)
                (Printf.sprintf "%s: %s and %s share a host iff a domain" what
                   l l')
                (h = h') (on l = on l'))
            hosts;
          match h with
          | Obs.Json.Str t ->
              A.(check string) (what ^ ": " ^ l ^ "'s thread host") "thread 0" t;
              A.(check int) (what ^ ": " ^ l ^ " on the caller") caller (on l)
          | _ -> ())
        hosts)
    [ (1, 1); (2, 2); (4, 4) ]

(* --- placement, planned without starting a run --- *)

(* The copies of a three-stage pipeline in pipeline order, [widths]
   per stage, every copy local unless [remote] says otherwise. *)
let slots_of ?(remote = fun _ -> false) (w0, w1, w2) =
  List.concat
    (List.mapi
       (fun s n ->
         List.init n (fun k ->
             { Par_runtime.stage = s; copy = k; local = not (remote s) }))
       [ w0; w1; w2 ])

let kind_name = function Sched.Thread -> "thread" | Sched.Domain -> "domain"
let pairs = A.(list (pair int int))

let test_layout_par () =
  List.iter
    (fun ((w0, w1, w2) as widths) ->
      let slots = slots_of widths in
      let copies = List.map (fun c -> (c.Par_runtime.stage, c.copy)) slots in
      let n = w0 + w1 + w2 in
      List.iter
        (fun cores ->
          let what = Printf.sprintf "%d-%d-%d on %d cores" w0 w1 w2 cores in
          let hosts = Par_runtime.layout ~cores slots in
          let d = min cores n in
          A.(check (list string))
            (what ^ ": the caller's thread, then domains")
            ("thread" :: List.init (d - 1) (fun _ -> "domain"))
            (List.map (fun h -> kind_name h.Par_runtime.kind) hosts);
          A.check pairs
            (what ^ ": every copy once")
            copies
            (List.sort compare
               (List.concat_map (fun h -> h.Par_runtime.slots) hosts));
          let host_of c =
            List.find_index (fun h -> List.mem c h.Par_runtime.slots) hosts
          in
          A.(check (option int)) (what ^ ": sink on the caller") (Some 0)
            (host_of (2, 0));
          if d >= 2 then
            List.iter2
              (fun a b ->
                A.(check bool) (what ^ ": neighbours apart") true
                  (host_of a <> host_of b))
              (List.filteri (fun i _ -> i < n - 1) copies)
              (List.tl copies))
        [ 1; 2; 4 ])
    [ (1, 1, 1); (2, 2, 1); (4, 4, 1) ];
  A.(check (list pairs))
    "4-4-1 on 4 cores"
    [
      [ (0, 0); (1, 0); (2, 0) ];
      [ (0, 3); (1, 3) ];
      [ (0, 2); (1, 2) ];
      [ (0, 1); (1, 1) ];
    ]
    (List.map
       (fun h -> h.Par_runtime.slots)
       (Par_runtime.layout ~cores:4 (slots_of (4, 4, 1))))

(* Proc: the source and inner slots are remote, the sink local. *)
let test_layout_proc () =
  let slots = slots_of ~remote:(fun s -> s < 2) (2, 2, 1) in
  let hosts = Par_runtime.layout ~cores:2 slots in
  A.check pairs "a host per slot, in slot order"
    (List.map (fun c -> (c.Par_runtime.stage, c.copy)) slots)
    (List.concat_map
       (fun h ->
         A.(check int) "alone on its host" 1 (List.length h.Par_runtime.slots);
         h.Par_runtime.slots)
       hosts);
  List.iter2
    (fun c h ->
      let what = Printf.sprintf "(%d, %d)" c.Par_runtime.stage c.copy in
      A.(check string)
        (what ^ ": remote on a caller thread, the sink on a domain")
        (if c.Par_runtime.local then "domain" else "thread")
        (kind_name h.Par_runtime.kind))
    slots hosts;
  A.(check int) "one domain, for the sink" 1
    (List.length
       (List.filter (fun h -> h.Par_runtime.kind = Sched.Domain) hosts))

(* --- the supervisor loop, without a run --- *)

(* An engine on a tiny pipeline with an executor that drops everything,
   and its mid copy: all [Par_runtime.supervise] asks of a run. *)
let supervised ?(max_retries = 3) () =
  let topo =
    topo3 ~source:(counting_source 1)
      ~inner:(fun _ -> Filter.pass_through "mid")
      ~sink:(fun _ -> Filter.pass_through "sink")
      ()
  in
  let policy = { Supervisor.default_policy with max_retries; backoff_s = 0.0 } in
  let eng = Supervisor.ok_exn (Engine.create ~policy topo) in
  Engine.attach eng
    {
      Engine.exec_backend = Engine.Par;
      exec_now = Obs.Clock.elapsed_s;
      exec_send = (fun ~src:_ ~dst_stage:_ ~dst_copy:_ _ -> ());
      exec_queue_stats = (fun ~stage:_ ~copy:_ -> Bqueue.no_stats);
      exec_wake = ignore;
    };
  let fails = ref 0 and restarts = ref 0 and runs = ref 0 in
  let sv =
    {
      Par_runtime.eng;
      cs = Engine.copy_at eng ~stage:1 ~copy:0;
      on_fail = (fun () -> incr fails);
      restart = (fun () -> incr restarts);
    }
  in
  (eng, sv, fails, restarts, runs)

let test_supervise () =
  let eng, sv, fails, restarts, runs = supervised () in
  let r =
    Par_runtime.supervise sv (fun () ->
        incr runs;
        if !runs <= 2 then failwith "flaky";
        42)
  in
  A.(check int) "the value of the third attempt" 42 r;
  A.(check int) "two retries" 2 (Engine.recovery eng).Supervisor.retries;
  A.(check int) "on_fail twice" 2 !fails;
  A.(check int) "restart twice" 2 !restarts;
  (* past max_retries the last exception is re-raised *)
  let _, sv, fails, restarts, runs = supervised ~max_retries:1 () in
  A.check_raises "the last exception" (Failure "attempt 2") (fun () ->
      Par_runtime.supervise sv (fun () ->
          incr runs;
          failwith (Printf.sprintf "attempt %d" !runs)));
  A.(check (list int)) "on_fail, restart, attempts" [ 2; 1; 2 ]
    [ !fails; !restarts; !runs ];
  (* an abort passes through without a retry *)
  let eng, sv, fails, _, runs = supervised () in
  A.check_raises "Aborted passes through" Bqueue.Aborted (fun () ->
      Par_runtime.supervise sv (fun () ->
          incr runs;
          raise Bqueue.Aborted));
  A.(check (list int)) "no crash, no on_fail, one attempt" [ 0; 0; 1 ]
    [ (Engine.recovery eng).Supervisor.crashes; !fails; !runs ];
  (* an aborting engine raises before the op runs *)
  let eng, sv, _, _, runs = supervised () in
  Engine.abort eng
    (Supervisor.Stage_dead { stage = 1; stage_name = "mid"; error = "test" });
  A.check_raises "aborting" Bqueue.Aborted (fun () ->
      Par_runtime.supervise sv (fun () -> incr runs));
  A.(check int) "the op never ran" 0 !runs

(* --- the periodic-check schedule, without threads --- *)

let test_check_schedule () =
  let module P = Par_runtime in
  let next = Option.map (fun s -> s.P.next) in
  let floats = A.(list (float 0.0)) in
  (* Two checks, of periods 10 and 25, polled every 10: each runs once
     its own period has passed. *)
  let a = ref { P.period = 10.0; next = 10.0 }
  and b = ref { P.period = 25.0; next = 25.0 } in
  A.(check (option (float 0.0))) "wake at the earliest due time" (Some 10.0)
    (P.next_due [ !a; !b ]);
  A.(check (option (float 0.0))) "the earliest due time, not the smallest period"
    (Some 25.0)
    (P.next_due [ { P.period = 10.0; next = 30.0 }; !b ]);
  let poll s runs ~now =
    Option.iter (fun s' -> runs := now :: !runs; s := s') (P.due ~now !s)
  in
  let runs_a = ref [] and runs_b = ref [] in
  for i = 1 to 10 do
    let now = 10.0 *. float_of_int i in
    poll a runs_a ~now;
    poll b runs_b ~now
  done;
  A.check floats "period 10"
    [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 100. ]
    (List.rev !runs_a);
  A.check floats "period 25" [ 30.; 50.; 80.; 100. ] (List.rev !runs_b);
  (* A late wake-up runs a check once and skips its missed periods. *)
  let s = { P.period = 10.0; next = 10.0 } in
  A.(check (option (float 0.0))) "not due early" None (next (P.due ~now:9.0 s));
  A.(check (option (float 0.0))) "late: once, next at the following boundary"
    (Some 60.0) (next (P.due ~now:55.0 s));
  A.(check (option (float 0.0))) "no burst after the late run" None
    (next (Option.bind (P.due ~now:55.0 s) (P.due ~now:58.0)));
  (* Nothing armed: no deadline. *)
  A.(check (option (float 0.0))) "nothing armed" None (P.next_due [])

(* Ties break by push order: a batch's items pushed at one arrival time
   reach the copy's FIFO queue in the order they were sent. *)
let test_timeline_ties_fifo () =
  let h = Engine.Timeline.create () in
  List.iter (fun v -> Engine.Timeline.push h 1.0 v) [ "a"; "b"; "c"; "d"; "e" ];
  Engine.Timeline.push h 0.5 "early";
  Engine.Timeline.push h 1.0 "f";
  let rec drain acc =
    match Engine.Timeline.pop h with
    | Some (_, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  A.(check (list string)) "time, then push order"
    [ "early"; "a"; "b"; "c"; "d"; "e"; "f" ]
    (drain [])

let suite =
  [
    ("all packets delivered", `Quick, test_all_packets_delivered);
    ("makespan bottleneck scaling", `Quick, test_makespan_bottleneck_scaling);
    ("transparent copies speedup", `Quick, test_transparent_copies_speedup);
    ("round robin balance", `Quick, test_round_robin_balance);
    ("link bytes accounting", `Quick, test_link_bytes_accounting);
    ("slow link dominates", `Quick, test_slow_link_dominates);
    ("latency increases makespan", `Quick, test_latency_increases_makespan);
    ("eos payload merge", `Quick, test_eos_payload_merge);
    ("source finalize payload", `Quick, test_source_finalize_payload);
    ("collecting sink", `Quick, test_collecting_sink_helper);
    ("topology validation", `Quick, test_topology_validation);
    ("par runtime counts", `Quick, test_par_runtime_counts);
    ("par eos payload", `Quick, test_par_eos_payload);
    ("bqueue close wakes blocked pushers", `Quick, test_bqueue_close_wakes_blocked);
    ("bqueue close wakes blocked poppers", `Quick, test_bqueue_close_wakes_poppers);
    ( "bqueue close while batch-blocked",
      `Quick,
      test_bqueue_close_while_batch_blocked );
    ("bqueue token past capacity", `Quick, test_bqueue_token_past_capacity);
    ("bqueue byte-bounded pop", `Quick, test_bqueue_pop_bytes);
    ("par domains spawned", `Quick, test_par_domains_spawned);
    ("par placement", `Quick, test_par_placement);
    ("par layout", `Quick, test_layout_par);
    ("proc layout", `Quick, test_layout_proc);
    ("supervisor loop", `Quick, test_supervise);
    ("periodic check schedule", `Quick, test_check_schedule);
    ("timeline ties pop in push order", `Quick, test_timeline_ties_fifo);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
