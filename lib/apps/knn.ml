(* k-nearest-neighbor search (§6.4): the data-mining kernel of the paper.

   The dataset is a synthetic seeded 3-d point cloud (substituting the
   paper's 108 MB / 4.5M point file, scaled down).  Each packet holds a
   contiguous chunk of points; the query point and k are run-time
   parameters (the paper evaluates k = 3 and k = 200).

   Besides the PipeLang program, this module provides a hand-written
   DataCutter pipeline (Decomp-Manual) performing the same decomposition:
   the data host computes a per-packet candidate set of the k nearest
   points and only those cross the network. *)

open Lang
open Datacutter
module V = Value

type config = {
  n_points : int;
  num_packets : int;
  k : int;
  query : float * float * float;
  seed : int;
}

let base_config =
  {
    n_points = 36000;
    num_packets = 12;
    k = 3;
    query = (0.31, 0.47, 0.62);
    seed = 1234;
  }

let with_k k = { base_config with k }

let tiny =
  { n_points = 300; num_packets = 4; k = 3; query = (0.5, 0.5, 0.5); seed = 5 }

(* --- dataset --------------------------------------------------------- *)

let point cfg i =
  ( Prng.hash_float cfg.seed (3 * i),
    Prng.hash_float cfg.seed ((3 * i) + 1),
    Prng.hash_float cfg.seed ((3 * i) + 2) )

let per_packet cfg = (cfg.n_points + cfg.num_packets - 1) / cfg.num_packets

let packet_range cfg p =
  let per = per_packet cfg in
  (p * per, min cfg.n_points ((p + 1) * per))

let read_points_extern cfg : string * Interp.extern_fn =
  ( "read_points",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let lo, hi = packet_range cfg p in
      let pt = Interp.class_decl ctx "Pt" in
      let make = V.maker pt in
      let sx = V.float_slot pt "x" and sy = V.float_slot pt "y" and sz = V.float_slot pt "z" in
      let vec = V.Vec.create () in
      for i = lo to hi - 1 do
        let x, y, z = point cfg i in
        let o = make () in
        o.V.floats.(sx) <- x;
        o.V.floats.(sy) <- y;
        o.V.floats.(sz) <- z;
        V.Vec.push vec (V.Vobject o)
      done;
      (* byte-bound repository read: raw binary points, ~0.5 ops/byte *)
      ctx.Interp.counter.Opcount.mem_ops <-
        ctx.Interp.counter.Opcount.mem_ops + (12 * (hi - lo));
      V.Vlist vec )

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_points";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "Pt");
      };
  ]

let externs cfg = [ read_points_extern cfg ]
let source_externs = [ "read_points" ]

let runtime_defs cfg =
  let qx, qy, qz = cfg.query in
  [
    ("k", cfg.k);
    ("qx_milli", int_of_float (qx *. 1000.0));
    ("qy_milli", int_of_float (qy *. 1000.0));
    ("qz_milli", int_of_float (qz *. 1000.0));
  ]

(* --- PipeLang source -------------------------------------------------- *)

let source =
  {|
class Pt {
  float x;
  float y;
  float z;
}

class KNN implements Reducinterface {
  int k;
  int filled;
  float[] dist;
  float[] px;
  float[] py;
  float[] pz;
  void sift_up(int i) {
    float d = this.dist[i];
    float x = this.px[i];
    float y = this.py[i];
    float z = this.pz[i];
    int j = i;
    while (j > 0) {
      int par = (j - 1) / 2;
      if (d > this.dist[par]) {
        this.dist[j] = this.dist[par];
        this.px[j] = this.px[par];
        this.py[j] = this.py[par];
        this.pz[j] = this.pz[par];
        j = par;
      } else {
        break;
      }
    }
    this.dist[j] = d;
    this.px[j] = x;
    this.py[j] = y;
    this.pz[j] = z;
  }
  void sift_down(float d, float x, float y, float z) {
    int j = 0;
    while (true) {
      int l = 2 * j + 1;
      if (l >= this.filled) {
        break;
      }
      int m = l;
      int r = l + 1;
      if (r < this.filled && this.dist[r] > this.dist[l]) {
        m = r;
      }
      if (this.dist[m] <= d) {
        break;
      }
      this.dist[j] = this.dist[m];
      this.px[j] = this.px[m];
      this.py[j] = this.py[m];
      this.pz[j] = this.pz[m];
      j = m;
    }
    this.dist[j] = d;
    this.px[j] = x;
    this.py[j] = y;
    this.pz[j] = z;
  }
  void insert(float d, float x, float y, float z) {
    if (this.filled < this.k) {
      this.dist[this.filled] = d;
      this.px[this.filled] = x;
      this.py[this.filled] = y;
      this.pz[this.filled] = z;
      this.filled = this.filled + 1;
      this.sift_up(this.filled - 1);
    } else {
      if (d < this.dist[0]) {
        this.sift_down(d, x, y, z);
      }
    }
  }
  void merge(KNN other) {
    for (int i = 0; i < other.filled; i = i + 1) {
      this.insert(other.dist[i], other.px[i], other.py[i], other.pz[i]);
    }
  }
}

KNN make_knn(int k) {
  KNN r = new KNN();
  r.k = k;
  r.filled = 0;
  r.dist = new float[k];
  r.px = new float[k];
  r.py = new float[k];
  r.pz = new float[k];
  return r;
}

KNN result = make_knn(runtime_define k);

pipelined (p in [0 : runtime_define num_packets]) {
  List<Pt> pts = read_points(p);
  float qx = float_of_int(runtime_define qx_milli) / 1000.0;
  float qy = float_of_int(runtime_define qy_milli) / 1000.0;
  float qz = float_of_int(runtime_define qz_milli) / 1000.0;
  KNN local = make_knn(runtime_define k);
  foreach (q in pts) {
    float dx = q.x - qx;
    float dy = q.y - qy;
    float dz = q.z - qz;
    local.insert(dx * dx + dy * dy + dz * dz, q.x, q.y, q.z);
  }
  result.merge(local);
}
|}

(* --- result extraction ------------------------------------------------ *)

(* The k nearest as a distance-sorted list (order inside the KNN arrays is
   merge-tree dependent; sorting makes results comparable). *)
let knn_result = function
  | V.Vobject o ->
      let filled = V.as_int (V.field o "filled") in
      let arr name = V.as_floats (V.field o name) in
      let dist = arr "dist" and px = arr "px" and py = arr "py" and pz = arr "pz" in
      List.init filled (fun i -> (dist.(i), px.(i), py.(i), pz.(i)))
      |> List.sort compare
  | v -> V.runtime_errorf "expected KNN, got %s" (V.type_name v)

(* Oracle: exact k nearest by full sort (native). *)
let oracle cfg =
  let qx, qy, qz = cfg.query in
  List.init cfg.n_points (fun i ->
      let x, y, z = point cfg i in
      let dx = x -. qx and dy = y -. qy and dz = z -. qz in
      ((dx *. dx) +. (dy *. dy) +. (dz *. dz), x, y, z))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < cfg.k)

(* --- Decomp-Manual: hand-written DataCutter filters ------------------- *)

(* Native candidate-set accumulator mirroring the PipeLang KNN class.
   Operation costs are charged explicitly, mirroring the work compiled
   code performs (the paper found no significant difference between the
   compiler-generated and manual knn versions). *)
module Native_knn = struct
  type t = {
    k : int;
    mutable filled : int;
    dist : float array;
    px : float array;
    py : float array;
    pz : float array;
    mutable ops : float;
  }

  let create k =
    {
      k;
      filled = 0;
      dist = Array.make k 0.0;
      px = Array.make k 0.0;
      py = Array.make k 0.0;
      pz = Array.make k 0.0;
      ops = 0.0;
    }

  (* hole-based max-heap sift, the same structure and charged cost as
     the compiled version's heap (the paper found no significant
     difference between the compiled and manual knn codes) *)
  let sift_up t i =
    let d = t.dist.(i) and x = t.px.(i) and y = t.py.(i) and z = t.pz.(i) in
    let j = ref i in
    let continue = ref true in
    while !continue && !j > 0 do
      let par = (!j - 1) / 2 in
      t.ops <- t.ops +. 22.0;
      if d > t.dist.(par) then begin
        t.dist.(!j) <- t.dist.(par);
        t.px.(!j) <- t.px.(par);
        t.py.(!j) <- t.py.(par);
        t.pz.(!j) <- t.pz.(par);
        j := par
      end
      else continue := false
    done;
    t.dist.(!j) <- d;
    t.px.(!j) <- x;
    t.py.(!j) <- y;
    t.pz.(!j) <- z

  let sift_down t d x y z =
    let j = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !j) + 1 in
      if l >= t.filled then continue := false
      else begin
        let m = ref l in
        let r = l + 1 in
        t.ops <- t.ops +. 30.0;
        if r < t.filled && t.dist.(r) > t.dist.(l) then m := r;
        if t.dist.(!m) <= d then continue := false
        else begin
          t.dist.(!j) <- t.dist.(!m);
          t.px.(!j) <- t.px.(!m);
          t.py.(!j) <- t.py.(!m);
          t.pz.(!j) <- t.pz.(!m);
          j := !m
        end
      end
    done;
    t.dist.(!j) <- d;
    t.px.(!j) <- x;
    t.py.(!j) <- y;
    t.pz.(!j) <- z

  let insert t d x y z =
    if t.filled < t.k then begin
      t.dist.(t.filled) <- d;
      t.px.(t.filled) <- x;
      t.py.(t.filled) <- y;
      t.pz.(t.filled) <- z;
      t.filled <- t.filled + 1;
      t.ops <- t.ops +. 14.0;
      sift_up t (t.filled - 1)
    end
    else if d < t.dist.(0) then begin
      t.ops <- t.ops +. 16.0;
      sift_down t d x y z
    end
    else t.ops <- t.ops +. 2.0

  let scan_point t ~q:(qx, qy, qz) x y z =
    let dx = x -. qx and dy = y -. qy and dz = z -. qz in
    (* loads, distance arithmetic and the insert test, charged like the
       compiled version (the paper found no significant difference) *)
    t.ops <- t.ops +. 32.0;
    insert t ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) x y z

  let take_ops t =
    let o = t.ops in
    t.ops <- 0.0;
    o

  (* wire format: filled, then filled * (dist, x, y, z) *)
  let pack t =
    let buf = Buffer.create 64 in
    Wirefmt.buf_add_int buf t.filled;
    for i = 0 to t.filled - 1 do
      Wirefmt.buf_add_float buf t.dist.(i);
      Wirefmt.buf_add_float buf t.px.(i);
      Wirefmt.buf_add_float buf t.py.(i);
      Wirefmt.buf_add_float buf t.pz.(i)
    done;
    Buffer.to_bytes buf

  let merge_packed t data =
    let r = Wirefmt.reader_of data in
    let n = Wirefmt.read_int r in
    for _ = 1 to n do
      let d = Wirefmt.read_float r in
      let x = Wirefmt.read_float r in
      let y = Wirefmt.read_float r in
      let z = Wirefmt.read_float r in
      insert t d x y z
    done

  let result t =
    List.init t.filled (fun i -> (t.dist.(i), t.px.(i), t.py.(i), t.pz.(i)))
    |> List.sort compare
end

(* Build the manual 3-stage topology: data hosts compute per-packet
   candidate sets; the compute stage merges them into per-copy partials;
   the sink merges the partials. *)
let manual_topology cfg ~(widths : int array) ~(powers : float array)
    ~(bandwidths : float array) ?(latency = 0.0) () :
    Topology.t * (unit -> (float * float * float * float) list) =
  if Array.length widths <> 3 then invalid_arg "knn manual: 3 stages";
  let result_box = ref [] in
  let make_src k : Filter.source =
    let next_packet = ref k in
    let next () =
      if !next_packet >= cfg.num_packets then None
      else begin
        let p = !next_packet in
        next_packet := !next_packet + widths.(0);
        let lo, hi = packet_range cfg p in
        let acc = Native_knn.create cfg.k in
        for i = lo to hi - 1 do
          let x, y, z = point cfg i in
          Native_knn.scan_point acc ~q:cfg.query x y z
        done;
        (* byte-bound repository read, same as the compiled version *)
        let read_cost = 12.0 *. float_of_int (hi - lo) in
        let data = Native_knn.pack acc in
        let cost = read_cost +. Native_knn.take_ops acc +. float_of_int (Bytes.length data / 8) in
        Some (Filter.make_buffer ~packet:p data, cost)
      end
    in
    {
      Filter.src_name = Printf.sprintf "knn-src[%d]" k;
      next;
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let make_compute _k : Filter.t =
    let partial = Native_knn.create cfg.k in
    {
      Filter.name = "knn-merge";
      init = (fun () -> 0.0);
      process =
        (fun b ->
          Native_knn.merge_packed partial b.Filter.data;
          (None, Native_knn.take_ops partial));
      on_eos = (fun payload -> (payload, 0.0));
      finalize =
        (fun () ->
          let data = Native_knn.pack partial in
          ( Some (Filter.make_buffer ~packet:(-1) data),
            float_of_int (Bytes.length data / 8) ));
    }
  in
  let make_sink _k : Filter.t =
    let final = Native_knn.create cfg.k in
    {
      Filter.name = "knn-view";
      init = (fun () -> 0.0);
      process = (fun _ -> (None, 0.0));
      on_eos =
        (fun payload ->
          (match payload with
          | Some b -> Native_knn.merge_packed final b.Filter.data
          | None -> ());
          (None, Native_knn.take_ops final));
      finalize =
        (fun () ->
          result_box := Native_knn.result final;
          (None, 0.0));
    }
  in
  let stages =
    [
      {
        Topology.stage_name = "C1";
        width = widths.(0);
        power = powers.(0);
        role = Topology.Source make_src;
      };
      {
        Topology.stage_name = "C2";
        width = widths.(1);
        power = powers.(1);
        role = Topology.Inner make_compute;
      };
      {
        Topology.stage_name = "C3";
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
  (Topology.create ~stages ~links, fun () -> !result_box)
