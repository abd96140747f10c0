(* Layer probes: each calls one layer's public API in isolation with an
   item of the workload's own shape, so a per-layer cost can be read
   without the rest of the pipeline around it.

   - Bqueue: push then pop on one thread (no contention), single items
     and 64-item push_all/pop_all batches.
   - Wire: encode and decode of one Data item frame and of a 64-item
     Batch frame.
   - Shm: round trip of one Data frame to a forked echo child over
     Shm.pair, on the transport a proc run would pick.

   Every probe reports the median over chunks of per-operation time.
   Must run before the process spawns any domain (the shm probe forks). *)

module E = Datacutter.Engine
module W = Datacutter.Wire
module M = Measure

(* Median per-operation nanoseconds of [chunks] chunks of [iters] calls
   of [f], each call covering [per_call] operations. *)
let per_op_ns ~chunks ~iters ?(per_call = 1) f =
  for _ = 1 to iters do f () done;
  let samples =
    List.init chunks (fun _ ->
        let (), t = M.time (fun () -> for _ = 1 to iters do f () done) in
        t *. 1e9 /. float_of_int (iters * per_call))
  in
  M.median samples

let bqueue_ns ~chunks ~iters item =
  let stop = Atomic.make false in
  let q = Datacutter.Bqueue.create ~cost:E.item_cost ~stop 1024 in
  let b1 =
    per_op_ns ~chunks ~iters (fun () ->
        ignore (Datacutter.Bqueue.push q item);
        ignore (Datacutter.Bqueue.pop q))
  in
  let batch = List.init 64 (fun _ -> item) in
  let b64 =
    per_op_ns ~chunks ~iters:(max 1 (iters / 64)) ~per_call:64 (fun () ->
        ignore (Datacutter.Bqueue.push_all q batch);
        ignore (Datacutter.Bqueue.pop_all q ~max:64))
  in
  [ ("bqueue.push_pop_ns.b1", b1); ("bqueue.push_pop_ns.b64", b64) ]

let wire_ns ~chunks ~iters item =
  let one msg ~per_call ~iters =
    let frame = W.encode msg in
    let enc = per_op_ns ~chunks ~iters ~per_call (fun () -> ignore (W.encode msg)) in
    let dec = per_op_ns ~chunks ~iters ~per_call (fun () -> ignore (W.decode frame ~pos:0)) in
    (enc, dec, Bytes.length frame)
  in
  let e1, d1, bytes1 = one (W.Item item) ~per_call:1 ~iters in
  let e64, d64, _ =
    one (W.Batch (List.init 64 (fun _ -> item))) ~per_call:64 ~iters:(max 1 (iters / 64))
  in
  [
    ("wire.encode_ns.b1", e1);
    ("wire.decode_ns.b1", d1);
    ("wire.encode_ns.b64", e64);
    ("wire.decode_ns.b64", d64);
    ("wire.bytes_per_item", float_of_int bytes1);
  ]

(* Forked ping-pong: the child echoes every Item back until Exit. *)
let shm_rtt_us ~rounds item =
  let module S = Datacutter.Shm in
  let parent, child = S.pair (S.resolve None) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close (S.fd_of parent);
      let rec echo () =
        match S.recv child with
        | Some (W.Item _ as m) ->
            S.send child m;
            echo ()
        | _ -> ()
      in
      (try echo () with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close (S.fd_of child);
      let round () =
        let t0 = M.now () in
        S.send parent (W.Item item);
        (match S.recv parent with
        | Some (W.Item _) -> ()
        | _ -> failwith "shm probe: echo child answered out of protocol");
        M.now () -. t0
      in
      let samples =
        Fun.protect
          ~finally:(fun () ->
            (try S.send parent W.Exit with _ -> ());
            S.close parent;
            ignore (Unix.waitpid [] pid))
          (fun () ->
            for _ = 1 to max 1 (rounds / 10) do ignore (round ()) done;
            List.init rounds (fun _ -> round ()))
      in
      [ ("shm.rtt_us", M.median samples *. 1e6) ]

let run ~tiny (buf : Datacutter.Filter.buffer) =
  let chunks, iters, rounds = if tiny then (3, 256, 50) else (15, 20_000, 3_000) in
  let item = E.Data buf in
  bqueue_ns ~chunks ~iters item @ wire_ns ~chunks ~iters item @ shm_rtt_us ~rounds item
