(* Virtual microscope (§6.5): interactive browsing of digitized slides.

   A query selects a rectangular region of the slide at a subsampling
   factor; the server-side processing clips each data chunk to the query
   region, subsamples, and the client assembles the output image.  The
   synthetic slide substitutes the paper's digitized microscopy data:
   a deterministic color texture generated from the seed.

   The paper's two test queries map to [small_query] (small region —
   hard to load-balance, limited speedup) and [large_query] (large
   region, larger subsampling factor — good speedups, larger gap between
   compiler-generated and manual code because the manual version strides
   directly over the input rather than testing every pixel).            *)

open Lang
open Datacutter
module V = Value

type config = {
  image_w : int;
  image_h : int;
  num_packets : int;
  (* query region [qx0, qx1) x [qy0, qy1) and subsampling factor *)
  qx0 : int;
  qy0 : int;
  qx1 : int;
  qy1 : int;
  subsample : int;
  seed : int;
}

let out_dims cfg =
  ( (cfg.qx1 - cfg.qx0 + cfg.subsample - 1) / cfg.subsample,
    (cfg.qy1 - cfg.qy0 + cfg.subsample - 1) / cfg.subsample )

let base =
  {
    image_w = 192;
    image_h = 192;
    num_packets = 16;
    qx0 = 0;
    qy0 = 0;
    qx1 = 192;
    qy1 = 192;
    subsample = 2;
    seed = 99;
  }

(* Small query: a 64x64 window — covers few chunks, so load balance
   across the data nodes is poor (paper: "the speedups are very
   limited"). *)
let small_query =
  { base with qx0 = 64; qy0 = 64; qx1 = 128; qy1 = 128; subsample = 2 }

(* Large query: most of the slide at a larger subsampling factor. *)
let large_query =
  { base with qx0 = 8; qy0 = 8; qx1 = 184; qy1 = 184; subsample = 4 }

let tiny =
  {
    image_w = 24;
    image_h = 24;
    num_packets = 4;
    qx0 = 4;
    qy0 = 4;
    qx1 = 20;
    qy1 = 20;
    subsample = 2;
    seed = 3;
  }

(* --- synthetic slide --------------------------------------------------- *)

let pixel cfg x y =
  let i = x + (cfg.image_w * y) in
  let base = Prng.hash_float cfg.seed i in
  let gx = float_of_int x /. float_of_int cfg.image_w in
  let gy = float_of_int y /. float_of_int cfg.image_h in
  ( (0.6 *. base) +. (0.4 *. gx),
    (0.5 *. base) +. (0.5 *. gy),
    0.3 +. (0.7 *. base *. gx *. gy) )

let rows_per_packet cfg = (cfg.image_h + cfg.num_packets - 1) / cfg.num_packets

let packet_rows cfg p =
  let per = rows_per_packet cfg in
  (p * per, min cfg.image_h ((p + 1) * per))

(* The slide store is row-indexed: a chunk read touches only the rows
   that overlap the query, so chunks outside the query region are nearly
   free — which is precisely what makes small queries hard to
   load-balance across data nodes (§6.5). *)
let query_rows cfg p =
  let ylo, yhi = packet_rows cfg p in
  (max ylo cfg.qy0, min yhi cfg.qy1)

let read_chunk_extern cfg : string * Interp.extern_fn =
  ( "read_chunk",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let ylo, yhi = query_rows cfg p in
      let px = Interp.class_decl ctx "Px" in
      let make = V.maker px in
      let ix = V.slot px "ix" and iy = V.slot px "iy" in
      let rgb = Array.map (V.float_slot px) [| "r"; "g"; "b" |] in
      let vec = V.Vec.create () in
      for y = ylo to yhi - 1 do
        for x = 0 to cfg.image_w - 1 do
          let r, g, b = pixel cfg x y in
          let o = make () in
          V.set o ix (V.Vint x);
          V.set o iy (V.Vint y);
          o.V.floats.(rgb.(0)) <- r;
          o.V.floats.(rgb.(1)) <- g;
          o.V.floats.(rgb.(2)) <- b;
          V.Vec.push vec (V.Vobject o)
        done
      done;
      (* reading a slide chunk decompresses it: roughly 2.5 weighted
         operations per byte (40-byte pixels) *)
      ctx.Interp.counter.Opcount.mem_ops <-
        ctx.Interp.counter.Opcount.mem_ops
        + (100 * cfg.image_w * max 0 (yhi - ylo));
      V.Vlist vec )

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_chunk";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "Px");
      };
  ]

let externs cfg = [ read_chunk_extern cfg ]
let source_externs = [ "read_chunk" ]

let runtime_defs cfg =
  let ow, oh = out_dims cfg in
  [
    ("qx0", cfg.qx0);
    ("qy0", cfg.qy0);
    ("qx1", cfg.qx1);
    ("qy1", cfg.qy1);
    ("subsample", cfg.subsample);
    ("out_w", ow);
    ("out_h", oh);
  ]

(* --- PipeLang source --------------------------------------------------- *)

let source =
  {|
class Px {
  int ix;
  int iy;
  float r;
  float g;
  float b;
}

class Img implements Reducinterface {
  int w;
  int h;
  float[] r;
  float[] g;
  float[] b;
  void merge(Img other) {
    for (int i = 0; i < this.w * this.h; i = i + 1) {
      if (other.r[i] >= 0.0) {
        this.r[i] = other.r[i];
        this.g[i] = other.g[i];
        this.b[i] = other.b[i];
      }
    }
  }
}

Img make_img(int w, int h) {
  Img m = new Img();
  m.w = w;
  m.h = h;
  m.r = new float[w * h];
  m.g = new float[w * h];
  m.b = new float[w * h];
  for (int i = 0; i < w * h; i = i + 1) {
    m.r[i] = -1.0;
    m.g[i] = -1.0;
    m.b[i] = -1.0;
  }
  return m;
}

bool in_query(Px q) {
  return q.ix >= runtime_define qx0 && q.ix < runtime_define qx1
      && q.iy >= runtime_define qy0 && q.iy < runtime_define qy1;
}

bool on_stride(Px q) {
  int s = runtime_define subsample;
  return (q.ix - runtime_define qx0) % s == 0
      && (q.iy - runtime_define qy0) % s == 0;
}

void place(Px q, Img img) {
  int s = runtime_define subsample;
  int ox = (q.ix - runtime_define qx0) / s;
  int oy = (q.iy - runtime_define qy0) / s;
  if (ox >= 0 && ox < img.w && oy >= 0 && oy < img.h) {
    int idx = oy * img.w + ox;
    img.r[idx] = q.r;
    img.g[idx] = q.g;
    img.b[idx] = q.b;
  }
}

Img view = make_img(runtime_define out_w, runtime_define out_h);

pipelined (p in [0 : runtime_define num_packets]) {
  List<Px> chunk = read_chunk(p);
  List<Px> sel = new List<Px>();
  foreach (q in chunk where in_query(q) && on_stride(q)) {
    sel.add(q);
  }
  foreach (q in sel) {
    place(q, view);
  }
}
|}

(* --- result extraction -------------------------------------------------- *)

let image_arrays = function
  | V.Vobject o ->
      let arr name = V.as_floats (V.field o name) in
      (arr "r", arr "g", arr "b")
  | v -> V.runtime_errorf "expected Img, got %s" (V.type_name v)

(* Oracle: directly computed output image. *)
let oracle cfg =
  let ow, oh = out_dims cfg in
  let r = Array.make (ow * oh) (-1.0)
  and g = Array.make (ow * oh) (-1.0)
  and b = Array.make (ow * oh) (-1.0) in
  for oy = 0 to oh - 1 do
    for ox = 0 to ow - 1 do
      let x = cfg.qx0 + (ox * cfg.subsample)
      and y = cfg.qy0 + (oy * cfg.subsample) in
      if x < cfg.qx1 && y < cfg.qy1 && x < cfg.image_w && y < cfg.image_h then begin
        let pr, pg, pb = pixel cfg x y in
        r.((oy * ow) + ox) <- pr;
        g.((oy * ow) + ox) <- pg;
        b.((oy * ow) + ox) <- pb
      end
    done
  done;
  (r, g, b)

(* --- Decomp-Manual ------------------------------------------------------ *)

(* The hand-written version differs from compiler output exactly where the
   paper says it does: the data host *strides* over the chunk, touching
   only every subsample-th pixel of the query region, instead of testing
   a conditional on every pixel. *)
let manual_topology cfg ~(widths : int array) ~(powers : float array)
    ~(bandwidths : float array) ?(latency = 0.0) () :
    Topology.t * (unit -> float array * float array * float array) =
  if Array.length widths <> 3 then invalid_arg "vmscope manual: 3 stages";
  let ow, oh = out_dims cfg in
  let results = ref ([||], [||], [||]) in
  let make_src k : Filter.source =
    let next_packet = ref k in
    let next () =
      if !next_packet >= cfg.num_packets then None
      else begin
        let p = !next_packet in
        next_packet := !next_packet + widths.(0);
        let ylo, yhi = query_rows cfg p in
        (* the query's rows come off the repository either way *)
        let read_cost =
          100.0 *. float_of_int (cfg.image_w * max 0 (yhi - ylo))
        in
        let buf = Buffer.create 256 in
        let count = ref 0 in
        let ops = ref 0.0 in
        (* stride directly over the query lattice *)
        let y0 = max ylo cfg.qy0 in
        let y_start =
          cfg.qy0 + (((y0 - cfg.qy0 + cfg.subsample - 1) / cfg.subsample) * cfg.subsample)
        in
        let y = ref y_start in
        while !y < min yhi cfg.qy1 do
          let x = ref cfg.qx0 in
          while !x < min cfg.qx1 cfg.image_w do
            let r, g, b = pixel cfg !x !y in
            let ox = (!x - cfg.qx0) / cfg.subsample
            and oy = (!y - cfg.qy0) / cfg.subsample in
            Wirefmt.buf_add_int buf ((oy * ow) + ox);
            Wirefmt.buf_add_float buf r;
            Wirefmt.buf_add_float buf g;
            Wirefmt.buf_add_float buf b;
            incr count;
            ops := !ops +. 8.0;
            x := !x + cfg.subsample
          done;
          y := !y + cfg.subsample
        done;
        let hdr = Buffer.create 8 in
        Wirefmt.buf_add_int hdr !count;
        Buffer.add_buffer hdr buf;
        Some
          ( Filter.make_buffer ~packet:p (Buffer.to_bytes hdr),
            read_cost +. !ops )
      end
    in
    {
      Filter.src_name = Printf.sprintf "vm-src[%d]" k;
      next;
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let make_compute _k : Filter.t =
    (* the manual decomposition mirrors the compiled one: nothing runs on
       the middle unit, buffers pass straight through *)
    {
      Filter.name = "vm-forward";
      init = (fun () -> 0.0);
      process =
        (fun b -> (Some b, 0.25 *. float_of_int (Filter.buffer_size b)));
      on_eos = (fun payload -> (payload, 0.0));
      finalize = (fun () -> (None, 0.0));
    }
  in
  let make_sink _k : Filter.t =
    let r = Array.make (ow * oh) (-1.0)
    and g = Array.make (ow * oh) (-1.0)
    and b = Array.make (ow * oh) (-1.0) in
    {
      Filter.name = "vm-view";
      init = (fun () -> 0.0);
      process =
        (fun buf ->
          let rd = Wirefmt.reader_of buf.Filter.data in
          let n = Wirefmt.read_int rd in
          for _ = 1 to n do
            let idx = Wirefmt.read_int rd in
            let pr = Wirefmt.read_float rd in
            let pg = Wirefmt.read_float rd in
            let pb = Wirefmt.read_float rd in
            if idx >= 0 && idx < ow * oh then begin
              r.(idx) <- pr;
              g.(idx) <- pg;
              b.(idx) <- pb
            end
          done;
          (None, 6.0 *. float_of_int n));
      on_eos = (fun _ -> (None, 0.0));
      finalize =
        (fun () ->
          results := (r, g, b);
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
  (Topology.create ~stages ~links, fun () -> !results)
