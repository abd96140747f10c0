(* Tests for the shared-memory proc transport (Shm): ring wrap-around
   and full/empty boundaries through the nonblocking endpoints,
   overflow frames falling back to the control socket in order, a
   SIGKILLed peer surfacing as EOF/EPIPE instead of a wedge, lazy
   faulting of freshly mapped rings, a QCheck property that rings sized
   by [Shm.plan_slots] hold a full credit window, and a QCheck
   round-trip of arbitrary frames against the Wire codec's structural
   equality.

   Ordering matters: the fork-based peer-death test runs before
   anything could spawn a domain — OCaml 5 permanently refuses
   [Unix.fork] afterwards. *)

module Shm = Datacutter.Shm
module Wire = Datacutter.Wire
module Engine = Datacutter.Engine
module Filter = Datacutter.Filter

let shm_available = Shm.available ()

(* Skip (trivially pass) the ring tests where mmap rings don't work. *)
let ring_pair ?slots ?slot_bytes () =
  if shm_available then Some (Shm.pair ?slots ?slot_bytes Shm.Shm) else None

let crashed i = Wire.Crashed (Printf.sprintf "frame-%d" i)

let expect_crashed what i = function
  | `Msg (Wire.Crashed s) ->
      Alcotest.(check string) what (Printf.sprintf "frame-%d" i) s
  | `Msg _ -> Alcotest.failf "%s: wrong frame kind" what
  | `Empty -> Alcotest.failf "%s: ring unexpectedly empty" what
  | `Eof -> Alcotest.failf "%s: unexpected EOF" what

(* --- ring mechanics, in-process over both endpoints ------------------ *)

let test_wraparound () =
  match ring_pair ~slots:8 ~slot_bytes:512 () with
  | None -> ()
  | Some (a, b) ->
      (* Far more frames than slots, one at a time: the cursor laps the
         ring dozens of times and every frame arrives intact and in
         order. *)
      for i = 0 to 499 do
        Shm.send a (crashed i);
        match Shm.recv b with
        | Some (Wire.Crashed s) ->
            Alcotest.(check string)
              "wrapped frame" (Printf.sprintf "frame-%d" i) s
        | _ -> Alcotest.fail "wrap-around: lost or mangled frame"
      done;
      (* and in the other direction: endpoints are symmetric *)
      for i = 0 to 99 do
        Shm.send b (crashed i);
        match Shm.recv a with
        | Some (Wire.Crashed s) ->
            Alcotest.(check string)
              "reverse frame" (Printf.sprintf "frame-%d" i) s
        | _ -> Alcotest.fail "wrap-around: reverse direction broken"
      done;
      Shm.close a;
      Shm.close b

let test_full_empty_boundary () =
  match ring_pair ~slots:8 ~slot_bytes:512 () with
  | None -> ()
  | Some (a, b) ->
      (match Shm.try_recv b with
      | `Empty -> ()
      | _ -> Alcotest.fail "fresh ring should be empty");
      (* fill to capacity: every slot usable, then a clean refusal *)
      let accepted = ref 0 in
      while Shm.try_send a (crashed !accepted) do
        incr accepted;
        if !accepted > 64 then Alcotest.fail "ring never reported full"
      done;
      Alcotest.(check int) "all 8 slots usable" 8 !accepted;
      (* drain completely, order preserved *)
      for i = 0 to !accepted - 1 do
        expect_crashed "drained frame" i (Shm.try_recv b)
      done;
      (match Shm.try_recv b with
      | `Empty -> ()
      | _ -> Alcotest.fail "drained ring should be empty");
      (* the freed slots are reusable: full cycle again *)
      Alcotest.(check bool) "reusable after drain" true
        (Shm.try_send a (crashed 0));
      expect_crashed "reused slot" 0 (Shm.try_recv b);
      Shm.close a;
      Shm.close b

let test_overflow_in_order () =
  match ring_pair ~slots:8 ~slot_bytes:256 () with
  | None -> ()
  | Some (a, b) ->
      (* Frames alternately below and far above the slot payload: the
         big ones ride the socket behind an in-ring marker, and the
         receiver still sees strict sending order. *)
      let payload i =
        if i mod 2 = 0 then Printf.sprintf "small-%d" i
        else Printf.sprintf "big-%d-%s" i (String.make 4096 'x')
      in
      (* bursts of 6 (≤ the 8 ring slots — a single thread drives both
         endpoints, so a full ring would deadlock), then drain: each
         burst mixes in-ring and overflow frames *)
      for burst = 0 to 4 do
        let base = burst * 6 in
        for i = base to base + 5 do
          Shm.send a (Wire.Crashed (payload i))
        done;
        for i = base to base + 5 do
          match Shm.recv b with
          | Some (Wire.Crashed s) ->
              Alcotest.(check string) "mixed-size frame" (payload i) s
          | _ -> Alcotest.fail "overflow: lost or mangled frame"
        done
      done;
      Shm.close a;
      Shm.close b

(* --- geometry ------------------------------------------------------- *)

(* Resident set size of this process in KiB, from /proc/self/status;
   [None] where /proc is absent. *)
let vm_rss_kib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf line "VmRSS: %d kB" Fun.id with
            | kib -> Some kib
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                scan ())
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Mapping a ring writes no page: an 8 MiB pair (64 slots x 64 KiB in
   each direction) stays out of the resident set until slots are
   written. *)
let test_lazy_faulting () =
  match vm_rss_kib () with
  | None -> ()
  | Some _ when not shm_available -> ()
  | Some before ->
      let a, b = Shm.pair ~slots:64 ~slot_bytes:(64 * 1024) Shm.Shm in
      let after = Option.get (vm_rss_kib ()) in
      Shm.close a;
      Shm.close b;
      if after - before >= 1024 then
        Alcotest.failf "mapping an 8 MiB pair raised VmRSS by %d KiB" (after - before)

(* A ring sized for a window of [depth] holds the worst case the proc
   driver produces: [depth] requests plus one control frame on the
   request ring, and [depth] responses each preceded by the worker's
   telemetry frame on the response ring — all without a refused send,
   so no pipelined send can block while responses back up. *)
let qcheck_plan_slots =
  QCheck.Test.make ~name:"plan_slots holds a full window" ~count:50
    QCheck.(int_range 1 16)
    (fun depth ->
      QCheck.assume shm_available;
      let slots = Shm.plan_slots ~depth in
      let a, b = Shm.pair ~slots ~slot_bytes:512 Shm.Shm in
      let telemetry =
        Wire.Telemetry
          {
            Wire.w_pid = 1;
            w_spans =
              [
                {
                  Wire.s_name = "process";
                  s_cat = "proc-worker";
                  s_ts = 0.0;
                  s_dur = 1e-6;
                  s_tid = 0;
                };
              ];
            w_counters = [ ("busy_s", 1e-6); ("calls", 1.0) ];
          }
      in
      let all_accepted conn msgs = List.for_all (Shm.try_send conn) msgs in
      let requests =
        List.init depth (fun i ->
            Wire.Item
              (Engine.Data (Filter.make_buffer ~packet:i (Bytes.make 64 'x'))))
        @ [ Wire.Finalize ]
      in
      let responses =
        List.concat (List.init depth (fun _ -> [ telemetry; Wire.Out None ]))
      in
      let ok =
        slots land (slots - 1) = 0
        && slots >= max 8 (4 * depth)
        && all_accepted a requests
        && all_accepted b responses
      in
      Shm.close a;
      Shm.close b;
      ok)

(* --- peer death (forks: must precede any domain spawn) --------------- *)

let test_sigkill_peer () =
  match ring_pair ~slots:8 ~slot_bytes:512 () with
  | None -> ()
  | Some (a, b) -> (
      match Unix.fork () with
      | 0 ->
          (* child: publish five frames into the shared ring, then die
             holding the mapping — SIGKILL, no cleanup of any kind *)
          Shm.close a;
          for i = 0 to 4 do
            Shm.send b (crashed i)
          done;
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          Unix._exit 1
      | pid ->
          Shm.close b;
          (* frames written before death are still delivered... *)
          for i = 0 to 4 do
            match Shm.recv a with
            | Some (Wire.Crashed s) ->
                Alcotest.(check string)
                  "pre-death frame" (Printf.sprintf "frame-%d" i) s
            | _ -> Alcotest.fail "sigkill: pre-death frame lost"
          done;
          (* ...then the death surfaces as EOF, not a wedge *)
          (match Shm.recv a with
          | None -> ()
          | Some _ -> Alcotest.fail "sigkill: expected EOF after peer death");
          (* and a blocked send surfaces as EPIPE once the ring fills *)
          let saw_epipe = ref false in
          (try
             for i = 0 to 99 do
               Shm.send a (crashed i)
             done
           with Unix.Unix_error (Unix.EPIPE, _, _) -> saw_epipe := true);
          Alcotest.(check bool) "EPIPE on dead peer" true !saw_epipe;
          ignore (Unix.waitpid [] pid);
          Shm.close a)

(* --- QCheck: arbitrary frames round-trip vs the Wire codec ------------ *)

let buffer ?(packet = 7) s = Filter.make_buffer ~packet (Bytes.of_string s)

let item_equal a b =
  match (a, b) with
  | Engine.Marker, Engine.Marker -> true
  | Engine.Data x, Engine.Data y | Engine.Final x, Engine.Final y ->
      x.Filter.packet = y.Filter.packet
      && Bytes.equal x.Filter.data y.Filter.data
  | _ -> false

(* Payload sizes straddle the 512-byte slot boundary on purpose: both
   the in-ring and the overflow path must deliver Wire-equal frames. *)
let qcheck_roundtrip =
  QCheck.Test.make ~name:"shm delivers Wire-equal frames" ~count:150
    QCheck.(
      pair (string_of_size Gen.(0 -- 2000)) (small_list (string_of_size Gen.(0 -- 600))))
    (fun (s, batch) ->
      QCheck.assume shm_available;
      let a, b = Shm.pair ~slots:8 ~slot_bytes:512 Shm.Shm in
      let sent =
        [
          Wire.Crashed s;
          Wire.Batch (List.map (fun x -> Engine.Data (buffer x)) batch);
          Wire.Out (Some (Engine.Final (buffer s)));
        ]
      in
      let ok =
        List.for_all
          (fun m ->
            Shm.send a m;
            match (m, Shm.recv b) with
            | Wire.Crashed x, Some (Wire.Crashed y) -> String.equal x y
            | Wire.Batch xs, Some (Wire.Batch ys) ->
                List.length xs = List.length ys
                && List.for_all2 item_equal xs ys
            | Wire.Out (Some x), Some (Wire.Out (Some y)) -> item_equal x y
            | _ -> false)
          sent
      in
      Shm.close a;
      Shm.close b;
      ok)

(* The zero-copy surface against the Bytes codec: encode each message
   directly into a reserved ring slot ([reserve]/[Wire.encode_big]/
   [commit]), decode it in place from the peeked slot
   ([peek]/[Wire.decode_big]/[consume]), and check the decoded message
   is structurally equal both to the original and to what the plain
   Bytes codec ([Wire.encode]/[Wire.decode]) round-trips — the two
   paths must describe the same wire language. *)
let msg_equal a b =
  match (a, b) with
  | Wire.Crashed x, Wire.Crashed y -> String.equal x y
  | Wire.Done, Wire.Done -> true
  | Wire.Item x, Wire.Item y -> item_equal x y
  | Wire.Batch xs, Wire.Batch ys ->
      List.length xs = List.length ys && List.for_all2 item_equal xs ys
  | Wire.Out (Some x), Wire.Out (Some y) -> item_equal x y
  | Wire.Out None, Wire.Out None -> true
  | _ -> false

let qcheck_inring_vs_bytes =
  QCheck.Test.make ~name:"reserve/commit matches the Bytes codec" ~count:150
    QCheck.(
      pair
        (string_of_size Gen.(0 -- 400))
        (small_list (string_of_size Gen.(0 -- 100))))
    (fun (s, batch) ->
      QCheck.assume shm_available;
      let a, b = Shm.pair ~slots:8 ~slot_bytes:65536 Shm.Shm in
      let msgs =
        [
          Wire.Crashed s;
          Wire.Item (Engine.Data (buffer s));
          Wire.Batch (List.map (fun x -> Engine.Data (buffer x)) batch);
          Wire.Out (Some (Engine.Final (buffer s)));
          Wire.Done;
        ]
      in
      let ok =
        List.for_all
          (fun m ->
            match Shm.reserve a with
            | None -> false
            | Some w -> (
                Wire.encode_big w m;
                Shm.commit a w;
                match Shm.peek b with
                | None -> false
                | Some r ->
                    let got = Wire.decode_big r in
                    Shm.consume b;
                    let via_bytes, _ = Wire.decode (Wire.encode m) ~pos:0 in
                    msg_equal m got && msg_equal m via_bytes))
          msgs
      in
      Shm.close a;
      Shm.close b;
      ok)

let () =
  Alcotest.run "shm"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around" `Quick test_wraparound;
          Alcotest.test_case "full/empty boundary" `Quick
            test_full_empty_boundary;
          Alcotest.test_case "overflow frames stay in order" `Quick
            test_overflow_in_order;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "mapping faults in no page" `Quick
            test_lazy_faulting;
          QCheck_alcotest.to_alcotest qcheck_plan_slots;
        ] );
      ( "death",
        [ Alcotest.test_case "SIGKILLed peer" `Quick test_sigkill_peer ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_inring_vs_bytes;
        ] );
    ]
