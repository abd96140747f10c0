(* Tests for the shared-memory proc transport (Shm): ring wrap-around
   and full/empty boundaries through the nonblocking endpoints, a
   QCheck property that frames up to three rings long span slots in
   order, the largest frame [Wire] allows going through whole, a
   SIGKILLed peer surfacing as EOF/EPIPE instead of a wedge,
   also in the middle of a spanning frame, the credit window over real
   rings answered by frames longer than the ring without deadlock, lazy
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
module Proc_window = Datacutter.Proc_window
open Wire_eq

let shm_available = Shm.available ()

(* Skip (trivially pass) the ring tests where mmap rings don't work. *)
let ring_pair ?slots ?slot_bytes () =
  if shm_available then Some (Shm.pair ?slots ?slot_bytes Shm.Shm) else None

(* Ring frames carry their payload as an error reply's message. *)
let crashed i = error_reply (Printf.sprintf "frame-%d" i)

let expect_crashed what i = function
  | `Msg (Wire.Reply ({ error = Some s; _ }, None)) ->
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
        | Some (Wire.Reply ({ error = Some s; _ }, None)) ->
            Alcotest.(check string)
              "wrapped frame" (Printf.sprintf "frame-%d" i) s
        | _ -> Alcotest.fail "wrap-around: lost or mangled frame"
      done;
      (* and in the other direction: endpoints are symmetric *)
      for i = 0 to 99 do
        Shm.send b (crashed i);
        match Shm.recv a with
        | Some (Wire.Reply ({ error = Some s; _ }, None)) ->
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

(* --- frames that span slots, QCheck ------------------------------------ *)

(* Slot payload and ring of the spanning property's pair. *)
let span_slots = 8
let span_slot_bytes = 512
let span_ring_bytes = span_slots * span_slot_bytes

(* A message tree of about [total] payload bytes: a batch of [k] items,
   or an answer with [k] slots, maybe an error and maybe telemetry of
   [k] spans; or a tag-only frame. *)
let gen_span_msg =
  let open QCheck.Gen in
  int_bound (3 * span_ring_bytes) >>= fun total ->
  int_range 1 8 >>= fun k ->
  let bytes n = string_size (return n) in
  let buf n = map2 (fun packet s -> buffer ~packet s) (int_bound 10_000) (bytes n) in
  let item =
    frequency
      [
        (6, map (fun b -> Engine.Data b) (buf (total / k)));
        (2, map (fun b -> Engine.Final b) (buf (total / k)));
        (1, return Engine.Marker);
      ]
  in
  let span =
    map
      (fun s_name ->
        { Wire.s_name; s_cat = "proc-worker"; s_ts = 0.5; s_dur = 1e-6; s_tid = k })
      (bytes (total / (4 * k)))
  in
  let telem =
    map
      (fun w_spans -> { Wire.w_pid = 42; w_spans; w_counters = [ ("busy_s", 0.25) ] })
      (list_repeat k span)
  in
  frequency
    [
      (1, oneofl [ Wire.Init; Wire.Finalize; Wire.Next; Wire.Src_finalize ]);
      (4, map (fun items -> Wire.Batch items) (list_repeat k item));
      ( 4,
        map3
          (fun outs error telem -> reply ?error ?telem outs)
          (list_repeat k (option (buf (total / (2 * k)))))
          (option (bytes (total / 4)))
          (option telem) );
    ]

(* [msgs] sent through [a] from this thread and received from [b] on a
   second one, so a frame longer than the ring streams through it.  A
   reader that raises hangs up its doorbell first, so the sender stops
   on EPIPE instead of waiting on a full ring, and the error is
   re-raised here. *)
let through a b msgs =
  let got = ref [] and failed = ref None in
  let reader =
    Thread.create
      (fun () ->
        try
          List.iter
            (fun _ -> Option.iter (fun m -> got := m :: !got) (Shm.recv b))
            msgs
        with e ->
          failed := Some e;
          Unix.shutdown (Shm.fd_of b) Unix.SHUTDOWN_SEND)
      ()
  in
  (try List.iter (Shm.send a) msgs
   with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  Thread.join reader;
  Option.iter raise !failed;
  List.rev !got

(* A frame's bytes in the ring: [Wire.encode]'s frame less its 4-byte
   length. *)
let ring_bytes m = Bytes.length (Wire.encode m) - 4

(* Random frames from a tag byte up to three rings' worth go
   [through] a pair.  They arrive Wire-equal and in order, and both
   ends count exactly the frames longer than a slot as spanning. *)
let qcheck_spanning =
  QCheck.Test.make ~name:"spanning frames arrive in order" ~count:100
    QCheck.(
      make
        ~print:(fun ms -> String.concat " " (List.map (fun m -> string_of_int (ring_bytes m)) ms))
        Gen.(list_size (1 -- 12) gen_span_msg))
    (fun msgs ->
      QCheck.assume shm_available;
      let a, b = Shm.pair ~slots:span_slots ~slot_bytes:span_slot_bytes Shm.Shm in
      let got = through a b msgs in
      let slot = (Shm.stats a).Shm.slot_bytes in
      let spanned = List.length (List.filter (fun m -> ring_bytes m > slot) msgs) in
      let ok =
        List.length got = List.length msgs
        && List.for_all2 msg_equal msgs got
        && (Shm.stats a).Shm.overflow_frames = spanned
        && (Shm.stats b).Shm.overflow_frames = spanned
      in
      Shm.close a;
      Shm.close b;
      ok)

(* The largest frame [Wire] allows, eight rings long at the default
   geometry, goes through a pair whole; one byte more is refused by
   [send] before anything is published, so the pair still carries the
   next frame. *)
let test_max_frame () =
  match ring_pair () with
  | None -> ()
  | Some (a, b) ->
      let with_payload n =
        let over = ring_bytes (error_reply "") - 1 in
        error_reply (String.make (n - over) 'm')
      in
      let biggest = with_payload Wire.max_frame in
      Alcotest.(check int) "a max_frame payload" (Wire.max_frame + 1) (ring_bytes biggest);
      (match through a b [ biggest ] with
      | [ got ] -> Alcotest.(check bool) "arrives Wire-equal" true (msg_equal biggest got)
      | _ -> Alcotest.fail "max_frame: lost");
      (* no reader: a send that went ahead would block on the full
         ring, and the alarm ends the test process *)
      ignore (Unix.alarm 10);
      (match Shm.send a (with_payload (Wire.max_frame + 1)) with
      | () -> Alcotest.fail "a frame over max_frame was sent"
      | exception Wire.Protocol_error _ -> ());
      ignore (Unix.alarm 0);
      Alcotest.(check bool) "the pair still carries the next frame" true
        (match through a b [ crashed 1 ] with
        | [ got ] -> msg_equal (crashed 1) got
        | _ -> false);
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
   driver produces: [depth] batch requests plus one control frame on
   the request ring, and [depth] answers each carrying the worker's
   telemetry on the response ring — all without a refused send, so no
   pipelined send can block while answers back up. *)
let qcheck_plan_slots =
  QCheck.Test.make ~name:"plan_slots holds a full window" ~count:50
    QCheck.(int_range 1 16)
    (fun depth ->
      QCheck.assume shm_available;
      let slots = Shm.plan_slots ~depth in
      let a, b = Shm.pair ~slots ~slot_bytes:512 Shm.Shm in
      let telemetry =
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
            Wire.Batch
              [ Engine.Data (Filter.make_buffer ~packet:i (Bytes.make 64 'x')) ])
        @ [ Wire.Finalize ]
      in
      let responses = List.init depth (fun _ -> reply ~telem:telemetry [ None ]) in
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
            | Some (Wire.Reply ({ error = Some s; _ }, None)) ->
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

(* A writer SIGKILLed in the middle of a spanning frame: the child
   starts a frame three rings long and blocks once the ring is full;
   the parent kills it there.  [recv] takes the published chunks, sees
   the doorbell's EOF and returns [None]: no partial frame and no hang
   (an alarm ends the test process if it hangs). *)
let test_kill_mid_frame () =
  match ring_pair ~slots:8 ~slot_bytes:512 () with
  | None -> ()
  | Some (a, b) -> (
      let go_rd, go_wr = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          Shm.close a;
          ignore (Unix.write_substring go_wr "!" 0 1);
          Shm.send b (error_reply (String.make (3 * 8 * 512) 'x'));
          Unix._exit 1
      | pid ->
          Shm.close b;
          Unix.close go_wr;
          (* freeing a slot rings the dead writer's doorbell *)
          let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
          ignore (Unix.read go_rd (Bytes.create 1) 0 1);
          Unix.close go_rd;
          (* the child fills the ring in microseconds, then parks *)
          Unix.sleepf 0.2;
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          ignore (Unix.alarm 10);
          let got = Shm.recv a in
          ignore (Unix.alarm 0);
          Alcotest.(check bool) "no partial frame" true (got = None);
          Alcotest.(check int) "the frame had started" 1
            (Shm.stats a).Shm.overflow_frames;
          Sys.set_signal Sys.sigpipe sigpipe;
          Shm.close a)

(* The credit window over real rings: a forked worker answers every
   request with a frame three rings long, while the parent drives a
   [Proc_window] of depth 4 over 8-slot rings with requests of three
   slots, every tenth one ten slots.  A full window of them would take
   12 slots or more.  The worker blocks writing each answer until the
   parent reads it; the parent's sends must never block meanwhile,
   which the window's slot budget ensures.  A deadlock fails after
   10 s. *)
let test_window_no_deadlock () =
  match ring_pair ~slots:8 ~slot_bytes:512 () with
  | None -> ()
  | Some (a, b) -> (
      let slot = (Shm.stats a).Shm.slot_bytes in
      let answer = buffer (String.make (3 * 8 * slot) 'a') in
      match Unix.fork () with
      | 0 ->
          Shm.close a;
          let rec serve () =
            match Shm.recv b with
            | Some (Wire.Batch items) ->
                Shm.send b (reply (Some answer :: List.map (fun _ -> None) (List.tl items)));
                serve ()
            | _ -> Unix._exit 0
          in
          serve ()
      | pid ->
          Shm.close b;
          let n = 60 in
          let acked = Atomic.make 0 in
          let w = Proc_window.create ~depth:4 ~frame_bytes:slot ~slots:8 in
          let rec perform = function
            | Proc_window.Send items -> Shm.send a (Wire.Batch items)
            | Proc_window.Ack _ -> Atomic.incr acked
            | Proc_window.Fail m -> failwith m
            | Proc_window.Resend _ | Proc_window.Reroute _ -> failwith "no crash here"
          and step ev = List.iter perform (Proc_window.step w ev)
          and settle () =
            if Proc_window.awaiting w <> None then begin
              (match Shm.recv a with
              | Some (Wire.Reply (r, None)) -> step (Proc_window.Response r)
              | _ -> failwith "worker answered out of protocol");
              settle ()
            end
          in
          let drive () =
            for i = 0 to n - 1 do
              let size = ((if i mod 10 = 9 then 10 else 3) * slot) - 64 in
              step (Proc_window.Submit [ Engine.Data (buffer ~packet:i (String.make size 'r')) ]);
              settle ()
            done;
            step Proc_window.Drain;
            settle ()
          in
          let driver = Thread.create drive () in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Atomic.get acked < n && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.01
          done;
          let done_ = Atomic.get acked in
          if done_ < n then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.failf "deadlocked after %d of %d answers" done_ n
          end;
          Thread.join driver;
          Shm.close a;
          ignore (Unix.waitpid [] pid))

(* --- QCheck: arbitrary frames round-trip vs the Wire codec ------------ *)

(* Payload sizes straddle the 512-byte slot boundary on purpose, and a
   batch may outgrow the ring: frames in one slot and frames spanning
   slots must both arrive Wire-equal. *)
let qcheck_roundtrip =
  QCheck.Test.make ~name:"shm delivers Wire-equal frames" ~count:150
    QCheck.(
      pair (string_of_size Gen.(0 -- 2000)) (small_list (string_of_size Gen.(0 -- 600))))
    (fun (s, batch) ->
      QCheck.assume shm_available;
      let a, b = Shm.pair ~slots:8 ~slot_bytes:512 Shm.Shm in
      let sent =
        [
          error_reply s;
          Wire.Batch (List.map (fun x -> Engine.Data (buffer x)) batch);
          reply [ Some (buffer s) ];
        ]
      in
      let got = through a b sent in
      let ok = List.length got = 3 && List.for_all2 msg_equal sent got in
      Shm.close a;
      Shm.close b;
      ok)

(* What the ring delivers against the Bytes codec: [send] encodes each
   message straight into a slot ([Wire.encode_big]) and [recv] decodes
   it in place ([Wire.decode_big]); the received message must be
   structurally equal both to the original and to what the plain Bytes
   codec ([Wire.encode]/[Wire.decode]) round-trips — the two paths must
   describe the same wire language. *)
let qcheck_inring_vs_bytes =
  QCheck.Test.make ~name:"send/recv matches the Bytes codec" ~count:150
    QCheck.(
      pair
        (string_of_size Gen.(0 -- 400))
        (small_list (string_of_size Gen.(0 -- 100))))
    (fun (s, batch) ->
      QCheck.assume shm_available;
      let a, b = Shm.pair ~slots:8 ~slot_bytes:65536 Shm.Shm in
      let msgs =
        [
          error_reply s;
          Wire.Batch [ Engine.Data (buffer s) ];
          Wire.Batch (List.map (fun x -> Engine.Data (buffer x)) batch);
          reply [ Some (buffer s) ];
          reply [];
        ]
      in
      let ok =
        List.for_all
          (fun m ->
            Shm.send a m;
            match Shm.recv b with
            | None -> false
            | Some got ->
                let via_bytes, _ = Wire.decode (Wire.encode m) ~pos:0 in
                msg_equal m got && msg_equal m via_bytes)
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
          QCheck_alcotest.to_alcotest qcheck_spanning;
          Alcotest.test_case "frames up to max_frame" `Quick test_max_frame;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "mapping faults in no page" `Quick
            test_lazy_faulting;
          QCheck_alcotest.to_alcotest qcheck_plan_slots;
        ] );
      ( "death",
        [
          Alcotest.test_case "SIGKILLed peer" `Quick test_sigkill_peer;
          Alcotest.test_case "peer killed mid-frame" `Quick test_kill_mid_frame;
          Alcotest.test_case "window over rings cannot deadlock" `Quick
            test_window_no_deadlock;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_inring_vs_bytes;
        ] );
    ]
