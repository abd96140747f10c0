(* Smoke test for the proc backend's credit-based frame pipelining,
   wired into `dune runtest` via the @stream-smoke alias.  Seven legs of
   full proc runs, the first three at a deep credit window
   (--inflight 16):

   - FIFO: with every width 1, the sink must see packets in EXACT
     source order even though up to 16 frames ride to each worker
     before the first acknowledgement returns — the window settles
     strictly in order.
   - Barrier drain: a counting middle filter emits its count at EOS
     (on_eos, from the source's final) and again at finalize.  Both
     finals must reach the sink only AFTER every data item — the
     driver drains its window before any strict end-of-stream round
     trip — and both counts must equal the full stream, proving no
     windowed frame was left unsettled at the barrier.
   - SIGKILL mid-window: the middle worker kills itself (once, gated
     by a flag file the replacement spare sees) while the window is
     full of unacknowledged frames.  The driver must reap the corpse,
     activate the spare, replay the acknowledged ring prefix and
     re-send the unacknowledged window — delivery stays exactly-once
     (crashes = retries = 1, sink multiset complete, no duplicates).
   - Give-up: a width-2 middle stage whose copy 0 raises on every
     packet >= 50, with one retry allowed.  The copy crashes, restarts
     on its spare, crashes again on the re-sent window and retires; the
     frames in its window and the items it held but had not yet queued
     must all reach the surviving sibling.  Run at --inflight 1, 4 and
     16, and at batch 8 with --inflight 4: the sink sees every packet
     exactly once and retired = 1.
   - Idle edge: widths 1-1-1 at --inflight 4.  The source's second
     [next] waits on a pipe that the sink writes when the first packet
     arrives.  The middle copy must settle its window when its input
     queue runs empty; a window that kept the first answer parked until
     the next input would wait forever, so the leg fails when no result
     arrives within 5 s.
   - Parked sink: the sink's [process] pops a private queue that
     nothing fills, so the sink, the local copy, parks for good as a
     fiber.  With no policy given the watchdog must return [Stalled]
     within 2 s, the sink reading blocked_pop; the leg fails when no
     result arrives within 10 s.
   - Crash under coalescing: batch 1, the default window (4), no fault
     plan, so the middle copies are fault-inert: each pops every item
     queued behind it, and a frame waiting for credit absorbs them.  The
     worker's first calls sleep, so the fast source fills the queue and
     the window stalls.  Copy 0's [process] then raises a plain
     exception once (a flag file, as in leg 3).  With one retry the
     spare takes over through replay and the resend of the absorbed
     frames; with none, at width 2, the copy retires and re-routes
     them.  The sink sees every packet exactly once.

   Each leg runs in its own forked child (OCaml 5 permanently refuses
   [Unix.fork] once a domain has been spawned, and every proc run
   spawns driver domains); on platforms without fork the test skips
   gracefully. *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("stream-smoke: " ^ m);
      exit 1)
    fmt

let buffer_of_int packet =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int packet);
  Datacutter.Filter.make_buffer ~packet b

let int_of_buffer (b : Datacutter.Filter.buffer) =
  Int64.to_int (Bytes.get_int64_le b.Datacutter.Filter.data 0)

let counting_source ?(final = false) n _copy =
  let i = ref 0 in
  {
    Datacutter.Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          incr i;
          Some (buffer_of_int p, 1.0)
        end);
    src_finalize =
      (fun () -> ((if final then Some (buffer_of_int (-1)) else None), 0.0));
  }

(* What one leg observes, marshalled back from the forked child: the
   sink's arrival sequence (`Data p / `Final v tags in order) and the
   run's recovery counters. *)
type event = Data of int | Final of int

type leg = {
  events : event list;
  recovery : Datacutter.Supervisor.recovery;
}

let recording_sink ?(on_data = ignore) () =
  let mutex = Mutex.create () in
  let events = ref [] in
  let sink _ =
    {
      Datacutter.Filter.name = "sink";
      init = (fun () -> 0.0);
      process =
        (fun b ->
          on_data (int_of_buffer b);
          Mutex.lock mutex;
          events := Data (int_of_buffer b) :: !events;
          Mutex.unlock mutex;
          (None, 1.0));
      on_eos =
        (fun b ->
          (match b with
          | Some b ->
              Mutex.lock mutex;
              events := Final (int_of_buffer b) :: !events;
              Mutex.unlock mutex
          | None -> ());
          (None, 0.0));
      finalize = (fun () -> (None, 0.0));
    }
  in
  (sink, fun () -> List.rev !events)

let topo ~n ?final ?(mid_width = 1) ?(source = counting_source ?final n)
    ?on_data ~mid () =
  let sink, got = recording_sink ?on_data () in
  ( Datacutter.Topology.create
      ~stages:
        [
          {
            Datacutter.Topology.stage_name = "src";
            width = 1;
            power = 100.0;
            role = Datacutter.Topology.Source source;
          };
          {
            Datacutter.Topology.stage_name = "mid";
            width = mid_width;
            power = 100.0;
            role = Datacutter.Topology.Inner mid;
          };
          {
            Datacutter.Topology.stage_name = "sink";
            width = 1;
            power = 100.0;
            role = Datacutter.Topology.Sink sink;
          };
        ]
      ~links:
        [
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
        ],
    got )

(* One proc run in a forked child, its observations marshalled back.
   With [timeout_s] the child runs in its own process group, and the
   whole group (the run and its workers) is killed when no result
   arrives in time. *)
let in_child ?timeout_s ~label (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      if timeout_s <> None then ignore (Unix.setsid ());
      let leg = f () in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc leg [];
      flush oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      Option.iter
        (fun t ->
          match Unix.select [ rd ] [] [] t with
          | [], _, _ ->
              (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid);
              die "%s: no result within %.0f s" label t
          | _ -> ())
        timeout_s;
      let ic = Unix.in_channel_of_descr rd in
      let leg =
        try Some (Marshal.from_channel ic : 'a)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      match (leg, Unix.waitpid [] pid) with
      | Some leg, (_, Unix.WEXITED 0) -> leg
      | _, (_, Unix.WEXITED c) ->
          die "%s: subprocess exited %d without a result" label c
      | _, (_, Unix.WSIGNALED sg) ->
          die "%s: subprocess killed by signal %d" label sg
      | _, (_, Unix.WSTOPPED _) -> die "%s: subprocess stopped" label)

let run_leg ~label ?timeout_s ?policy ?(inflight = 16) ?batch ~n ?final
    ?mid_width ?source ?on_data ~mid () : leg =
  in_child ?timeout_s ~label (fun () ->
      let t, got = topo ~n ?final ?mid_width ?source ?on_data ~mid () in
      let stage_batch =
        Option.map
          (Array.make (List.length t.Datacutter.Topology.stages))
          batch
      in
      match
        Datacutter.Runtime.run_result ~backend:Datacutter.Runtime.Proc
          ?policy ~inflight ?stage_batch t
      with
      | Ok m -> { events = got (); recovery = m.Datacutter.Engine.recovery }
      | Error e ->
          die "%s: proc run failed: %s" label
            (Fmt.str "%a" Datacutter.Supervisor.pp_run_error e))

let data_packets events =
  List.filter_map (function Data p -> Some p | Final _ -> None) events

let () =
  if not Datacutter.Proc_runtime.available then begin
    print_endline "stream-smoke skipped: no Unix.fork on this platform";
    exit 0
  end;

  (* --- leg 1: FIFO order through a full window ---------------------- *)
  let n = 300 in
  let fifo =
    run_leg ~label:"fifo" ~n
      ~mid:(fun _ -> Datacutter.Filter.pass_through "mid")
      ()
  in
  if data_packets fifo.events <> List.init n Fun.id then
    die "fifo: sink saw %d packets out of order (or lost some of %d)"
      (List.length (data_packets fifo.events))
      n;
  if fifo.recovery.Datacutter.Supervisor.crashes <> 0 then
    die "fifo: unexpected crashes";

  (* --- leg 2: the window drains at every barrier edge --------------- *)
  let n = 120 in
  let counting_mid _ =
    let count = ref 0 in
    {
      Datacutter.Filter.name = "mid";
      init = (fun () -> 0.0);
      process =
        (fun b ->
          incr count;
          (Some b, 1.0));
      on_eos = (fun _ -> (Some (buffer_of_int !count), 0.0));
      finalize = (fun () -> (Some (buffer_of_int (!count + 1000)), 0.0));
    }
  in
  let drain = run_leg ~label:"drain" ~n ~final:true ~mid:counting_mid () in
  if data_packets drain.events <> List.init n Fun.id then
    die "drain: sink data stream wrong or out of order";
  (match
     List.filter_map
       (function Final v -> Some v | Data _ -> None)
       drain.events
   with
  | [ eos; fin ] ->
      if eos <> n then
        die "drain: on_eos ran with %d of %d items settled — the window \
             was not drained before the EOS round trip"
          eos n;
      if fin <> n + 1000 then
        die "drain: finalize ran with %d of %d items settled" (fin - 1000) n
  | fs -> die "drain: expected 2 finals at the sink, got %d" (List.length fs));
  (* both finals must arrive after every data item *)
  (match
     List.find_index (function Final _ -> true | Data _ -> false) drain.events
   with
  | Some i when i < n ->
      die "drain: a final overtook the windowed data (position %d of %d)" i n
  | _ -> ());

  (* --- leg 3: SIGKILL with a full window of unacked frames ---------- *)
  let n = 60 in
  let flag = Filename.temp_file "stream_smoke" ".crashed" in
  Sys.remove flag;
  let suicidal_mid _ =
    {
      (Datacutter.Filter.pass_through "mid") with
      Datacutter.Filter.process =
        (fun b ->
          if int_of_buffer b = 7 && not (Sys.file_exists flag) then begin
            Unix.close (Unix.openfile flag [ Unix.O_CREAT ] 0o644);
            Unix.kill (Unix.getpid ()) Sys.sigkill
          end;
          (Some b, 1.0));
    }
  in
  let policy =
    { Datacutter.Supervisor.default_policy with Datacutter.Supervisor.max_retries = 2 }
  in
  let kill = run_leg ~label:"sigkill" ~policy ~n ~mid:suicidal_mid () in
  if Sys.file_exists flag then Sys.remove flag;
  let got = List.sort compare (data_packets kill.events) in
  if got <> List.init n Fun.id then
    die "sigkill: delivery not exactly-once (%d packets, expected %d distinct)"
      (List.length got) n;
  if kill.recovery.Datacutter.Supervisor.crashes <> 1 then
    die "sigkill: expected 1 crash, got %d"
      kill.recovery.Datacutter.Supervisor.crashes;
  if kill.recovery.Datacutter.Supervisor.retries <> 1 then
    die "sigkill: expected 1 retry (spare activated), got %d"
      kill.recovery.Datacutter.Supervisor.retries;

  (* --- leg 4: give-up re-routes everything the copy still owed ------ *)
  let n = 200 in
  let raising_mid copy =
    {
      (Datacutter.Filter.pass_through "mid") with
      Datacutter.Filter.process =
        (fun b ->
          if copy = 0 && int_of_buffer b >= 50 then failwith "mid copy 0 down";
          (Some b, 1.0));
    }
  in
  let policy =
    { Datacutter.Supervisor.default_policy with Datacutter.Supervisor.max_retries = 1 }
  in
  List.iter
    (fun (inflight, batch) ->
      let label = Printf.sprintf "give-up@inflight%d/B%d" inflight batch in
      let leg =
        run_leg ~label ~policy ~inflight ~batch ~n ~mid_width:2
          ~mid:raising_mid ()
      in
      let got = List.sort compare (data_packets leg.events) in
      if got <> List.init n Fun.id then
        die "%s: delivery not exactly-once (%d packets, missing %s)" label
          (List.length got)
          (String.concat ","
             (List.filter_map
                (fun p ->
                  if List.mem p got then None else Some (string_of_int p))
                (List.init n Fun.id)));
      if leg.recovery.Datacutter.Supervisor.retired <> 1 then
        die "%s: expected 1 retirement, got %d" label
          leg.recovery.Datacutter.Supervisor.retired)
    [ (1, 1); (4, 1); (16, 1); (4, 8) ];

  (* --- leg 5: the window settles when its copy goes idle ------------ *)
  let n = 8 in
  (* made before the run forks its workers, so the source's worker and
     the local sink share it *)
  let gate_rd, gate_wr = Unix.pipe () in
  let gated_source copy =
    let src = counting_source n copy in
    let calls = ref 0 in
    {
      src with
      Datacutter.Filter.next =
        (fun () ->
          incr calls;
          if !calls = 2 then ignore (Unix.read gate_rd (Bytes.create 1) 0 1);
          src.Datacutter.Filter.next ());
    }
  in
  let open_gate p =
    if p = 0 then ignore (Unix.write_substring gate_wr "x" 0 1)
  in
  let idle =
    run_leg ~label:"idle" ~timeout_s:5.0 ~inflight:4 ~n ~source:gated_source
      ~on_data:open_gate
      ~mid:(fun _ -> Datacutter.Filter.pass_through "mid")
      ()
  in
  if data_packets idle.events <> List.init n Fun.id then
    die "idle: sink data stream wrong or out of order";

  (* --- leg 6: a parked sink stalls ----------------------------------- *)
  let stall_s, sink_state =
    in_child ~label:"parked sink" ~timeout_s:10.0 (fun () ->
        let never = Datacutter.Bqueue.create ~stop:(Atomic.make false) 1 in
        let t, _ =
          topo ~n:200
            ~on_data:(fun _ -> ignore (Datacutter.Bqueue.pop never))
            ~mid:(fun _ -> Datacutter.Filter.pass_through "mid")
            ()
        in
        let t0 = Unix.gettimeofday () in
        match Datacutter.Runtime.run_result ~backend:Datacutter.Runtime.Proc t with
        | Error (Datacutter.Supervisor.Stalled { report; _ }) ->
            let sink =
              List.find (fun cr -> cr.Datacutter.Supervisor.cr_stage = 2) report
            in
            (Unix.gettimeofday () -. t0, sink.cr_state)
        | Error e ->
            die "parked sink: wrong error: %s"
              (Fmt.str "%a" Datacutter.Supervisor.pp_run_error e)
        | Ok _ -> die "parked sink: the run completed")
  in
  if stall_s >= 2.0 then
    die "parked sink: stalled after %.2f s, not within 2 s" stall_s;
  if sink_state <> "blocked_pop" then
    die "parked sink: the sink reads %S, not blocked_pop" sink_state;

  (* --- leg 7: a real crash under coalescing ------------------------- *)
  let n = 400 in
  let raising_once copy =
    {
      (Datacutter.Filter.pass_through "mid") with
      Datacutter.Filter.process =
        (fun b ->
          let p = int_of_buffer b in
          if p < 2 then Unix.sleepf 0.02;
          if copy = 0 && p >= 40 && not (Sys.file_exists flag) then begin
            Unix.close (Unix.openfile flag [ Unix.O_CREAT ] 0o644);
            failwith "mid raised"
          end;
          (Some b, 1.0));
    }
  in
  let coalesced ~label ~mid_width ~max_retries =
    let policy =
      { Datacutter.Supervisor.default_policy with Datacutter.Supervisor.max_retries }
    in
    let leg =
      run_leg ~label ~policy ~inflight:4 ~n ~mid_width ~mid:raising_once ()
    in
    if Sys.file_exists flag then Sys.remove flag;
    if List.sort compare (data_packets leg.events) <> List.init n Fun.id then
      die "%s: delivery not exactly-once" label;
    let r = leg.recovery in
    if r.Datacutter.Supervisor.crashes <> 1 then
      die "%s: expected 1 crash, got %d" label r.Datacutter.Supervisor.crashes;
    r
  in
  let r = coalesced ~label:"coalesced retry" ~mid_width:1 ~max_retries:1 in
  if r.Datacutter.Supervisor.retries <> 1 then
    die "coalesced retry: expected 1 retry, got %d" r.Datacutter.Supervisor.retries;
  let r = coalesced ~label:"coalesced give-up" ~mid_width:2 ~max_retries:0 in
  if r.Datacutter.Supervisor.retired <> 1 then
    die "coalesced give-up: expected 1 retirement, got %d"
      r.Datacutter.Supervisor.retired;

  Printf.printf
    "stream-smoke ok: FIFO at inflight=16 (300 packets), window drained at \
     EOS/finalize barriers, SIGKILL mid-window recovered exactly-once \
     (crashes=%d retries=%d replayed=%d), give-up re-routed exactly-once \
     at inflight 1/4/16 and batch 8, idle window settled at inflight 4, \
     parked sink stalled after %.2f s, a crash under coalescing recovered \
     exactly-once by retry and by give-up\n"
    kill.recovery.Datacutter.Supervisor.crashes
    kill.recovery.Datacutter.Supervisor.retries
    kill.recovery.Datacutter.Supervisor.replayed stall_s
