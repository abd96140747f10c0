(* A throughput microbenchmark built directly on the engine: a source
   flooding the pipeline with many small buffers, a pass-through middle
   stage charging a small fixed cost per item, and a counting/
   checksumming sink.  Per-item overhead (locks, wakeups, wire frames)
   dominates here by construction, which is exactly what engine-level
   batching amortizes — the `bench transport` target sweeps the batch
   cap over this topology on all three backends. *)

open Datacutter

type config = {
  items : int;  (** buffers pushed through the pipeline *)
  item_bytes : int;  (** payload size of each buffer *)
  work : float;  (** weighted ops charged per item at each stage *)
  mid_spin : int;  (** real CPU iterations per item at the middle stage *)
  mid_block_s : float;  (** real blocking wait per item at the middle stage *)
  mid_block_from : float;  (** stream fraction before the middle stage waits *)
}

let default =
  { items = 20_000; item_bytes = 32; work = 8.0; mid_spin = 0;
    mid_block_s = 0.0; mid_block_from = 0.0 }

let tiny =
  { items = 2_000; item_bytes = 32; work = 8.0; mid_spin = 0;
    mid_block_s = 0.0; mid_block_from = 0.0 }

(* The adaptive bench's misplanned workload: each item blocks the middle
   stage for real time (a stand-in for a latency-bound remote read), so
   with one planned copy the middle stage is the measured bottleneck —
   and because the cost is waiting, not computing, more copies overlap
   it even on a single-core host: the wait is a [Sched.sleep], so a
   copy running as a fiber lets its host's other copies run. *)
let misplanned =
  { items = 1_200; item_bytes = 32; work = 8.0; mid_spin = 0;
    mid_block_s = 0.0005; mid_block_from = 0.0 }

(* A phase change: the first half of the stream passes the middle stage
   without waiting, the second half waits as in [misplanned], so a plan
   sized from the whole run's mean sees half the wait per packet. *)
let phased = { misplanned with mid_block_from = 0.5 }

(* Integer-mixing busywork the optimizer cannot delete: the result
   feeds [Sys.opaque_identity].  Pure compute, no allocation, so one
   more copy on another core buys real parallel speedup. *)
let spin n seed =
  let acc = ref seed in
  for i = 1 to n do
    acc := (!acc * 1_103_515_245) + 12_345 + i;
    acc := !acc lxor (!acc lsr 16)
  done;
  ignore (Sys.opaque_identity !acc)

(* Same per-item cost, [factor] times the stream: the out-of-core
   sweep's dataset axis. *)
let scaled cfg factor =
  if factor < 1 then invalid_arg "Streambench.scaled: factor must be >= 1";
  { cfg with items = cfg.items * factor }

(* Deterministic payload: byte [j] of packet [p] is a mix of both, so
   the sink checksum catches reordering of bytes within an item as well
   as lost or duplicated items. *)
let payload cfg p =
  Bytes.init cfg.item_bytes (fun j -> Char.chr (((p * 131) + (j * 7)) land 0xff))

(* The whole stream as a dataset cache file — record [p] is exactly
   [payload cfg p], so a file-backed run must reproduce the inline
   [expected] checksum bit-for-bit. *)
let dataset ?dir cfg =
  Dataset.ensure ?dir
    ~name:(Printf.sprintf "streambench-%d" cfg.item_bytes)
    ~items:cfg.items ~item_bytes:cfg.item_bytes
    ~gen:(fun p -> payload cfg p)
    ()

let topology cfg ?dataset ~(widths : int array) ~(powers : float array)
    ~(bandwidths : float array) ?(latency = 0.0) () :
    Topology.t * (unit -> int * int) =
  if Array.length widths <> 3 then invalid_arg "streambench: 3 stages";
  (match dataset with
  | Some ds
    when Dataset.items ds <> cfg.items
         || Dataset.item_bytes ds <> cfg.item_bytes ->
      invalid_arg
        (Printf.sprintf
           "streambench: dataset is %dx%d but the config wants %dx%d"
           (Dataset.items ds) (Dataset.item_bytes ds) cfg.items cfg.item_bytes)
  | _ -> ());
  let count = ref 0 in
  let sum = ref 0 in
  let make_src k : Filter.source =
    let next =
      match dataset with
      | None ->
          (* inline generation, copies interleaved by stride *)
          let next_packet = ref k in
          fun () ->
            if !next_packet >= cfg.items then None
            else begin
              let p = !next_packet in
              next_packet := !next_packet + widths.(0);
              Some (Filter.make_buffer ~packet:p (payload cfg p), cfg.work)
            end
      | Some ds ->
          (* file-backed: each copy streams a contiguous block through a
             chunked cursor, so no copy ever holds more than one chunk.
             Instantiation happens in the executing copy (domain or
             forked worker), so every copy owns its own channel. *)
          let w = widths.(0) in
          let lo = cfg.items * k / w and hi = cfg.items * (k + 1) / w in
          let cur = Dataset.cursor ds ~start:lo ~stop:hi in
          let p = ref lo in
          fun () ->
            match Dataset.next cur with
            | None -> None
            | Some data ->
                let packet = !p in
                incr p;
                Some (Filter.make_buffer ~packet data, cfg.work)
    in
    {
      Filter.src_name = Printf.sprintf "sb-src[%d]" k;
      next;
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let block_from =
    int_of_float (cfg.mid_block_from *. float_of_int cfg.items)
  in
  let make_mid _k : Filter.t =
    {
      Filter.name = "sb-mid";
      init = (fun () -> 0.0);
      process =
        (fun b ->
          if cfg.mid_spin > 0 then spin cfg.mid_spin b.Filter.packet;
          if cfg.mid_block_s > 0.0 && b.Filter.packet >= block_from then
            Sched.sleep cfg.mid_block_s;
          (Some b, cfg.work));
      on_eos = (fun payload -> (payload, 0.0));
      finalize = (fun () -> (None, 0.0));
    }
  in
  let make_sink _k : Filter.t =
    let my_count = ref 0 in
    let my_sum = ref 0 in
    let absorb b =
      incr my_count;
      let d = b.Filter.data in
      for j = 0 to Bytes.length d - 1 do
        my_sum := !my_sum + Char.code (Bytes.get d j)
      done
    in
    {
      Filter.name = "sb-sink";
      init = (fun () -> 0.0);
      process =
        (fun b ->
          absorb b;
          (None, cfg.work));
      on_eos = (fun _ -> (None, 0.0));
      finalize =
        (fun () ->
          count := !count + !my_count;
          sum := !sum + !my_sum;
          (None, 0.0));
    }
  in
  let stages =
    [
      {
        Topology.stage_name = "S1";
        width = widths.(0);
        power = powers.(0);
        role = Topology.Source make_src;
      };
      {
        Topology.stage_name = "S2";
        width = widths.(1);
        power = powers.(1);
        role = Topology.Inner make_mid;
      };
      {
        Topology.stage_name = "S3";
        width = widths.(2);
        power = powers.(2);
        role = Topology.Sink make_sink;
      };
    ]
  in
  let links =
    [
      { Topology.bandwidth = bandwidths.(0); latency };
      { Topology.bandwidth = bandwidths.(1); latency };
    ]
  in
  (Topology.create ~stages ~links, fun () -> (!count, !sum))

(* The checksum [topology]'s sink must report for [cfg.items] items —
   backends and batch sizes alike are checked against it. *)
let expected cfg =
  let total = ref 0 in
  for p = 0 to cfg.items - 1 do
    let d = payload cfg p in
    for j = 0 to Bytes.length d - 1 do
      total := !total + Char.code (Bytes.get d j)
    done
  done;
  (cfg.items, !total)

let profile cfg =
  {
    Core.Costmodel.task = [| cfg.work; cfg.work; cfg.work |];
    vol_out =
      [|
        float_of_int cfg.item_bytes;
        float_of_int cfg.item_bytes;
        (* the sink's (count, checksum) result amortized *)
        16.0 /. float_of_int cfg.items;
      |];
    packets = cfg.items;
  }
