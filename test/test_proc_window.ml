(* Tests for the credit window of a remote filter copy
   ([Proc_window]), driven without a fork.

   - A QCheck property runs random interleavings of the window's six
     events (submit, response, crash, give-up, barrier drain, input
     idle) at depth 1-16 and batch 1-64 against a model worker that
     answers frames in order, sometimes with a partial answer and an
     error.  A model driver raises the events and carries out the
     actions the way the copy driver does, and, like it, lets a frame
     waiting for credit absorb the items queued behind it before it
     blocks.  Every submitted or absorbed item must be delivered exactly
     once (acknowledged or re-routed), acks come in submission order, no
     item is acked twice after a resend, the window never exceeds its
     credits or its byte budget, nothing is absorbed while no frame
     waits for credit, a frame that absorbed stays within its slot
     payload, and no finished answer is held across an idle event.
   - Unit tests pin the SIGKILL-with-a-full-window case (the resend is
     exactly the unacknowledged suffix), the give-up hand-back and the
     absorb step.

   The property runs a fixed seed and budget under [dune runtest];
   [test_proc_window.exe --long] (alias [@window-long]) runs 100 times
   the budget. *)

module A = Alcotest
module W = Datacutter.Proc_window
module Engine = Datacutter.Engine
module Filter = Datacutter.Filter

let item ?(size = 8) id =
  Engine.Data (Filter.make_buffer ~packet:id (Bytes.create size))

let id_of = function
  | Engine.Data b | Engine.Final b -> b.Filter.packet
  | Engine.Marker -> -1

let ids = List.map id_of

let frame_estimate items =
  List.fold_left (fun a it -> a + Engine.item_cost it) 32 items

(* The bytes a frame is charged: the documented estimate, with a frame
   over 32 KiB charged as the whole budget. *)
let frame_cost items =
  let est = frame_estimate items in
  if est > 32 * 1024 then W.byte_budget else est

(* --- the model ------------------------------------------------------- *)

type ev =
  | Submit of int * int  (* batch size, item payload bytes *)
  | Arrive of int * int  (* items queued behind the window, for absorbing *)
  | Work  (* the worker finishes its oldest unanswered frame *)
  | Response  (* the driver settles the answers already waiting *)
  | Crash  (* SIGKILL: the worker and its answers are gone *)
  | Give_up
  | Drain
  | Idle

let pp_ev = function
  | Submit (n, sz) -> Printf.sprintf "Submit(%d x %dB)" n sz
  | Arrive (n, sz) -> Printf.sprintf "Arrive(%d x %dB)" n sz
  | Work -> "Work"
  | Response -> "Response"
  | Crash -> "Crash"
  | Give_up -> "Give_up"
  | Drain -> "Drain"
  | Idle -> "Idle"

type case = { depth : int; frame_bytes : int; seed : int; evs : ev list }

let gen_case =
  let open QCheck.Gen in
  let ev =
    frequency
      [
        ( 6,
          map2
            (fun n sz -> Submit (n, sz))
            (int_range 1 64)
            (oneofl [ 8; 512; 4096; 40_000 ]) );
        ( 3,
          map2
            (fun n sz -> Arrive (n, sz))
            (int_range 1 64)
            (oneofl [ 8; 512; 4096; 40_000 ]) );
        (5, return Work);
        (3, return Response);
        (1, return Crash);
        (1, return Give_up);
        (1, return Drain);
        (2, return Idle);
      ]
  in
  map4
    (fun depth frame_bytes seed evs -> { depth; frame_bytes; seed; evs })
    (int_range 1 16)
    (oneofl [ 1024; 16 * 1024 ])
    (int_bound 1_000_000)
    (list_size (int_range 1 60) ev)

let arb_case =
  QCheck.make gen_case ~print:(fun c ->
      Printf.sprintf "depth %d, frame %dB, seed %d: %s" c.depth c.frame_bytes
        c.seed
        (String.concat " " (List.map pp_ev c.evs)))

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* Run one case; raises [Violation] on a broken property. *)
let run_case { depth; frame_bytes; seed; evs } =
  let rng = Random.State.make [| seed |] in
  let max_retries = 2 in
  let next_id = ref 0 in
  let submitted = ref [] in
  let delivered = Hashtbl.create 64 in
  let deliver how it =
    let id = id_of it in
    if Hashtbl.mem delivered id then
      violation "item %d delivered twice (%s)" id how;
    Hashtbl.replace delivered id how
  in
  (* one window generation: a give-up starts a fresh copy *)
  let w = ref (W.create ~depth ~frame_bytes) in
  let retries = ref max_retries in
  let last_ack = ref (-1) in
  (* the worker: frames received and not yet answered, and answers
     finished and not yet read by the driver; [in_flight] mirrors the
     frames the window has sent and not settled *)
  let received : Engine.item list Queue.t = Queue.create () in
  let ready : W.response Queue.t = Queue.create () in
  let in_flight : Engine.item list Queue.t = Queue.create () in
  let check_budget () =
    let n = Queue.length in_flight in
    if n > depth then violation "%d frames in flight at depth %d" n depth;
    let bytes = Queue.fold (fun a fr -> a + frame_cost fr) 0 in_flight in
    if n > 1 && bytes > W.byte_budget then
      violation "%d bytes in flight over the %d-byte budget" bytes W.byte_budget
  in
  (* the items queued behind the window, as payload sizes: an item is
     made, numbered and counted as submitted when a frame absorbs it *)
  let queued : int Queue.t = Queue.create () in
  let absorbed = Hashtbl.create 64 in
  let take ~credit_wait room =
    if not credit_wait then
      violation "asked to absorb while no frame waits for credit";
    match Queue.peek_opt queued with
    | Some size when Engine.item_cost (item ~size 0) <= room ->
        ignore (Queue.pop queued);
        let it = item ~size !next_id in
        incr next_id;
        submitted := it :: !submitted;
        Hashtbl.replace absorbed (id_of it) ();
        Some it
    | _ -> None
  in
  let absorb () =
    W.absorb !w (take ~credit_wait:(W.awaiting !w = Some W.Credit))
  in
  let receive items =
    if
      List.exists (fun it -> Hashtbl.mem absorbed (id_of it)) items
      && frame_estimate items > frame_bytes
    then
      violation "a frame that absorbed is %d bytes over its %d-byte slot"
        (frame_estimate items) frame_bytes;
    Queue.push items received;
    Queue.push items in_flight;
    check_budget ()
  in
  (* The worker answers its oldest frame; one in eight answers fails
     after a random prefix. *)
  let work () =
    match Queue.take_opt received with
    | None -> false
    | Some items ->
        let n = List.length items in
        let r =
          if Random.State.int rng 8 = 0 then
            let k = Random.State.int rng n in
            {
              W.outs = List.init k (fun _ -> None);
              error = Some "callback raised";
            }
          else
            let answer it =
              Some (Filter.make_buffer ~packet:(id_of it) Bytes.empty)
            in
            { W.outs = List.map answer items; error = None }
        in
        Queue.push r ready;
        true
  in
  let lose_worker () =
    Queue.clear received;
    Queue.clear ready;
    Queue.clear in_flight
  in
  let perform = function
    | W.Send items -> receive items
    | W.Resend frames -> List.iter receive frames
    | W.Ack (it, out) ->
        let id = id_of it in
        if id <= !last_ack then violation "ack %d after ack %d" id !last_ack;
        last_ack := id;
        (match out with
        | Some b when b.Filter.packet <> id ->
            violation "item %d acked with the answer of %d" id b.Filter.packet
        | _ -> ());
        deliver "acked" it
    | W.Reroute items -> List.iter (deliver "rerouted") items
    | W.Fail msg -> raise (W.Remote_crash msg)
  in
  let step ev = List.iter perform (W.step !w ev) in
  (* A complete answer settles the head frame; a partial one fails, and
     the crash path rebuilds the worker's frames from the resend. *)
  let step_response r =
    let complete = List.length r.W.outs = List.length (Queue.peek in_flight) in
    if complete && r.W.error = None then ignore (Queue.take in_flight);
    step (W.Response r)
  in
  let poll () =
    while W.in_flight !w > 0 && not (Queue.is_empty ready) do
      step_response (Queue.take ready)
    done
  in
  let rec pump () =
    match W.awaiting !w with
    | None -> ()
    | Some _ ->
        if W.in_flight !w = 0 then violation "awaiting with nothing in flight";
        absorb ();
        if Queue.is_empty ready && not (work ()) then
          violation "blocked for an answer the worker never got";
        step_response (Queue.take ready);
        pump ()
  in
  let give_up () =
    step W.Give_up;
    lose_worker ();
    w := W.create ~depth ~frame_bytes;
    retries := max_retries;
    last_ack := -1
  in
  (* the supervisor loop: a retry replaces the worker and re-sends *)
  let rec crashed () =
    lose_worker ();
    if !retries = 0 then give_up ()
    else begin
      decr retries;
      match
        step W.Crash;
        pump ()
      with
      | () -> ()
      | exception W.Remote_crash _ -> crashed ()
    end
  in
  let guarded f = try f () with W.Remote_crash _ -> crashed () in
  let event ev =
    guarded (fun () ->
        step ev;
        poll ();
        pump ())
  in
  let settle ev =
    event ev;
    if W.in_flight !w > 0 then
      violation "%d frames still in flight" (W.in_flight !w);
    if not (Queue.is_empty ready) then violation "a finished answer is held"
  in
  List.iter
    (function
      | Submit (n, size) ->
          let items =
            List.init n (fun _ ->
                let it = item ~size !next_id in
                incr next_id;
                it)
          in
          submitted := items @ !submitted;
          event (W.Submit items);
          if W.awaiting !w <> None then violation "submit returned with a wait"
      | Arrive (n, size) ->
          for _ = 1 to n do
            Queue.push size queued
          done;
          absorb ()
      | Work -> ignore (work ())
      | Response -> guarded poll
      | Crash -> crashed ()
      | Give_up -> give_up ()
      | Drain -> settle W.Drain
      | Idle ->
          (* the worker may have finished frames; none may stay parked *)
          settle W.Idle)
    evs;
  settle W.Drain;
  List.iter
    (fun it ->
      if not (Hashtbl.mem delivered (id_of it)) then
        violation "item %d never delivered" (id_of it))
    !submitted;
  true

let prop_window ~count =
  QCheck.Test.make ~name:"window: exactly once, FIFO, nothing parked at idle"
    ~count arb_case (fun c ->
      try run_case c with Violation m -> QCheck.Test.fail_report m)

(* --- unit tests ------------------------------------------------------ *)

let slot = 16 * 1024

let sends acts =
  List.concat_map
    (function W.Send items -> [ ids items ] | _ -> [])
    acts

let test_sigkill_full_window () =
  let w = W.create ~depth:4 ~frame_bytes:slot in
  let frames = List.init 4 (fun f -> List.init 3 (fun i -> item ((3 * f) + i))) in
  let sent = List.concat_map (fun fr -> sends (W.step w (W.Submit fr))) frames in
  A.(check (list (list int))) "every frame goes out" (List.map ids frames) sent;
  A.(check bool) "a fifth frame waits for credit" true
    (W.step w (W.Submit [ item 12 ]) = [] && W.awaiting w = Some W.Credit);
  let ok n = { W.outs = List.init n (fun _ -> None); error = None } in
  (* the head frame settles and frees the credit for the staged one *)
  (match W.step w (W.Response (ok 3)) with
  | [ W.Ack (a, _); W.Ack (b, _); W.Ack (c, _); W.Send [ s ] ] ->
      A.(check (list int)) "head acked in order" [ 0; 1; 2 ] (ids [ a; b; c ]);
      A.(check int) "staged frame sent" 12 (id_of s)
  | _ -> A.fail "head response: expected three acks and the staged send");
  (* the worker answers one item of the next frame, then dies *)
  (match W.step w (W.Response { W.outs = [ None ]; error = Some "killed" }) with
  | [ W.Ack (a, _); W.Fail "killed" ] -> A.(check int) "prefix acked" 3 (id_of a)
  | _ -> A.fail "partial response: expected one ack and the failure");
  match W.step w W.Crash with
  | [ W.Resend frames ] ->
      A.(check (list (list int))) "resend is exactly the unacked suffix"
        [ [ 4; 5 ]; [ 6; 7; 8 ]; [ 9; 10; 11 ]; [ 12 ] ]
        (List.map ids frames)
  | _ -> A.fail "crash: expected one resend"

let test_give_up_hands_back () =
  let w = W.create ~depth:1 ~frame_bytes:slot in
  ignore (W.step w (W.Submit [ item 0; item 1 ]));
  A.(check bool) "depth 1 settles right after the send" true
    (W.awaiting w = Some W.Settle);
  ignore (W.step w (W.Submit [ item 2 ]));
  (match W.step w W.Give_up with
  | [ W.Reroute items ] ->
      A.(check (list int)) "window then staged, in order" [ 0; 1; 2 ] (ids items)
  | _ -> A.fail "give-up: expected one re-route");
  A.(check int) "empty after give-up" 0 (W.in_flight w);
  A.(check bool) "nothing awaited" true (W.awaiting w = None)

let test_big_frame_alone () =
  let w = W.create ~depth:16 ~frame_bytes:slot in
  ignore (W.step w (W.Submit [ item 0 ]));
  A.(check (list (list int))) "an oversized frame waits for an empty window" []
    (sends (W.step w (W.Submit [ item ~size:40_000 1 ])));
  A.(check (list (list int))) "and goes once the window empties" [ [ 1 ] ]
    (sends (W.step w (W.Response { W.outs = [ None ]; error = None })))

(* Hands over the items of [pending] while they fit, counting the
   calls. *)
let taker pending =
  let calls = ref 0 in
  let take room =
    incr calls;
    match !pending with
    | it :: rest when Engine.item_cost it <= room ->
        pending := rest;
        Some it
    | _ -> None
  in
  (take, calls)

let test_absorb () =
  let w = W.create ~depth:2 ~frame_bytes:slot in
  let behind = ref [ item 3; item 4; item ~size:(slot - 24 - 32 - (2 * 32)) 5; item 6 ] in
  let take, calls = taker behind in
  ignore (W.step w (W.Submit [ item 0 ]));
  W.absorb w take;
  A.(check int) "nothing absorbed while a credit is free" 0 !calls;
  ignore (W.step w (W.Submit [ item 1 ]));
  ignore (W.step w (W.Submit [ item 2 ]));
  W.absorb w take;
  A.(check (list int)) "the staged frame stops at its slot" [ 5; 6 ] (ids !behind);
  let ok n = { W.outs = List.init n (fun _ -> None); error = None } in
  A.(check (list (list int))) "it goes out whole once a credit frees"
    [ [ 2; 3; 4 ] ]
    (sends (W.step w (W.Response (ok 1))));
  (* the worker dies before answering: both frames are resent as sent *)
  (match W.step w W.Crash with
  | [ W.Resend frames ] ->
      A.(check (list (list int))) "a crash resends the absorbed items"
        [ [ 1 ]; [ 2; 3; 4 ] ] (List.map ids frames)
  | _ -> A.fail "crash: expected one resend");
  let first = W.step w (W.Response (ok 1)) in
  let acked =
    List.filter_map
      (function W.Ack (it, _) -> Some (id_of it) | _ -> None)
      (first @ W.step w (W.Response (ok 3)))
  in
  A.(check (list int)) "absorbed items are acked in submission order"
    [ 1; 2; 3; 4 ] acked;
  (* a staged frame that absorbed is handed back whole on give-up *)
  ignore (W.step w (W.Submit [ item 7 ]));
  ignore (W.step w (W.Submit [ item 8 ]));
  ignore (W.step w (W.Submit [ item 9 ]));
  W.absorb w (fst (taker (ref [ item 10 ])));
  match W.step w W.Give_up with
  | [ W.Reroute items ] ->
      A.(check (list int)) "give-up re-routes the absorbed items"
        [ 7; 8; 9; 10 ] (ids items)
  | _ -> A.fail "give-up: expected one re-route"

let () =
  let long = Array.mem "--long" Sys.argv in
  let argv =
    Array.of_list (List.filter (( <> ) "--long") (Array.to_list Sys.argv))
  in
  let count = if long then 30_000 else 300 in
  A.run ~argv "proc_window"
    [
      ( "window",
        [
          A.test_case "SIGKILL with a full window" `Quick
            test_sigkill_full_window;
          A.test_case "give-up hands everything back" `Quick
            test_give_up_hands_back;
          A.test_case "oversized frame travels alone" `Quick
            test_big_frame_alone;
          A.test_case "a credit-stalled frame absorbs" `Quick test_absorb;
        ] );
      ( "window-prop",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 23 |])
            (prop_window ~count);
        ] );
    ]
