(* Isosurface rendering (§3, §6.3): the z-buffer and active-pixels
   algorithms, written in PipeLang.

   The datasets substitute ParSSim grid dumps with a synthetic scalar
   field (two rational blobs plus lattice noise, seeded), so the cube
   test's selectivity is data-dependent like the original.  A packet is a
   contiguous chunk of the cube enumeration.

   Pipeline stages exposed to the compiler:
     read cubes -> cube test (compaction) -> triangle extraction ->
     view transform/projection -> z-buffer (or active-pixel) accumulation
     -> merge into the global reduction buffer.                          *)

open Lang
module V = Value

type config = {
  grid_dim : int;     (* cubes per axis; corners are (dim+1)^3 *)
  num_packets : int;
  screen : int;       (* square screen, pixels per side *)
  iso_millis : int;   (* isovalue * 1000 *)
  view_millideg : int;(* viewing angle * 1000 (radians) *)
  seed : int;
}

let small =
  {
    grid_dim = 24;
    num_packets = 48;
    screen = 24;
    iso_millis = 500;
    view_millideg = 600;
    seed = 42;
  }

(* The paper's large dataset is 4x the small one; the packet (stream
   buffer) size stays fixed, so the packet count scales with the data. *)
let large = { small with grid_dim = 38; num_packets = 192 }

let tiny =
  { grid_dim = 6; num_packets = 4; screen = 12; iso_millis = 500;
    view_millideg = 600; seed = 7 }

(* --- synthetic scalar field ---------------------------------------- *)

(* One rational blob of strength [s] centred on (cx, cy, cz), at (u, v,
   w).  Inlined, like the [Prng] hash, so [field] boxes only its
   result. *)
let[@inline] blob u v w cx cy cz s =
  let dx = u -. cx and dy = v -. cy and dz = w -. cz in
  s /. (1.0 +. (25.0 *. ((dx *. dx) +. (dy *. dy) +. (dz *. dz))))

let field cfg x y z =
  let d = float_of_int cfg.grid_dim in
  let u = float_of_int x /. d
  and v = float_of_int y /. d
  and w = float_of_int z /. d in
  let corner_index = x + ((cfg.grid_dim + 1) * (y + ((cfg.grid_dim + 1) * z))) in
  blob u v w 0.35 0.4 0.5 1.0
  +. blob u v w 0.7 0.6 0.45 0.8
  +. (0.02 *. Prng.hash_float cfg.seed corner_index)

let cube_count cfg = cfg.grid_dim * cfg.grid_dim * cfg.grid_dim

let per_packet cfg = (cube_count cfg + cfg.num_packets - 1) / cfg.num_packets

(* [cube_maker ctx ~corner d] builds the Cube object for global cube
   index [gi] as the program declares the class, corner values supplied
   by [corner] (the analytic field, or the cached grid) and written
   straight into the object's flat [float] part.  The layout and the
   slots are resolved once per maker. *)
let cube_maker ctx ~corner d =
  let cube = Interp.class_decl ctx "Cube" in
  let slot =
    Array.map (V.float_slot cube)
      [| "x"; "y"; "z"; "v000"; "v001"; "v010"; "v011"; "v100"; "v101"; "v110"; "v111" |]
  in
  let make = V.maker cube in
  fun gi ->
    let cx = gi mod d and cy = gi / d mod d and cz = gi / (d * d) in
    let o = make () in
    let f = o.V.floats in
    f.(slot.(0)) <- float_of_int cx;
    f.(slot.(1)) <- float_of_int cy;
    f.(slot.(2)) <- float_of_int cz;
    f.(slot.(3)) <- corner cx cy cz;
    f.(slot.(4)) <- corner cx cy (cz + 1);
    f.(slot.(5)) <- corner cx (cy + 1) cz;
    f.(slot.(6)) <- corner cx (cy + 1) (cz + 1);
    f.(slot.(7)) <- corner (cx + 1) cy cz;
    f.(slot.(8)) <- corner (cx + 1) cy (cz + 1);
    f.(slot.(9)) <- corner (cx + 1) (cy + 1) cz;
    f.(slot.(10)) <- corner (cx + 1) (cy + 1) (cz + 1);
    V.Vobject o

(* read_cubes(p): the cubes of packet p, charging a per-byte read cost to
   the hosting node (the data repository access of the paper). *)
let read_cubes_extern cfg : string * Interp.extern_fn =
  ( "read_cubes",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let per = per_packet cfg in
      let lo = p * per and hi = min (cube_count cfg) ((p + 1) * per) in
      let make_cube = cube_maker ctx ~corner:(field cfg) cfg.grid_dim in
      let vec = V.Vec.create () in
      for gi = lo to hi - 1 do
        V.Vec.push vec (make_cube gi)
      done;
      (* repository read is byte-bound: 11 doubles per cube plus layout
         decoding, roughly one weighted operation per byte *)
      ctx.Interp.counter.Opcount.mem_ops <-
        ctx.Interp.counter.Opcount.mem_ops + (96 * (hi - lo));
      V.Vlist vec )

(* --- cached corner grid (out-of-core variant) ---------------------- *)

(* The corner lattice as a dataset cache file: record [ci] is the
   float64 bit pattern of [field] at corner [ci] (the [x + (d+1)(y +
   (d+1)z)] enumeration [field]'s noise term already uses), so cached
   reads reproduce the analytic field bit-for-bit. *)
let cached_grid ?dir cfg =
  let d1 = cfg.grid_dim + 1 in
  Dataset.ensure ?dir
    ~name:(Printf.sprintf "iso-grid-s%d-d%d" cfg.seed cfg.grid_dim)
    ~items:(d1 * d1 * d1) ~item_bytes:8
    ~gen:(fun ci ->
      let x = ci mod d1 and y = ci / d1 mod d1 and z = ci / (d1 * d1) in
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.bits_of_float (field cfg x y z));
      b)
    ()

(* read_cubes against the cached grid: one windowed read of the z-plane
   slab covering the packet's cubes (planes are contiguous runs of
   (d+1)^2 records), so memory stays bounded by the slab however large
   the grid — the dataset itself never needs to be resident. *)
let read_cubes_cached_extern cfg ds : string * Interp.extern_fn =
  ( "read_cubes",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let per = per_packet cfg in
      let lo = p * per and hi = min (cube_count cfg) ((p + 1) * per) in
      let d = cfg.grid_dim in
      let d1 = d + 1 in
      let vec = V.Vec.create () in
      if hi > lo then begin
        let zlo = lo / (d * d) and zhi = ((hi - 1) / (d * d)) + 1 in
        let base = zlo * d1 * d1 in
        let window =
          Dataset.pread ds ~start:base ~count:((zhi - zlo + 1) * d1 * d1)
        in
        let corner x y z =
          let ci = x + (d1 * (y + (d1 * z))) in
          Int64.float_of_bits (Bytes.get_int64_le window ((ci - base) * 8))
        in
        let make_cube = cube_maker ctx ~corner d in
        for gi = lo to hi - 1 do
          V.Vec.push vec (make_cube gi)
        done
      end;
      ctx.Interp.counter.Opcount.mem_ops <-
        ctx.Interp.counter.Opcount.mem_ops + (96 * (hi - lo));
      V.Vlist vec )

(* [scaled cfg n]: ~[n] times the cubes (cube-root growth per axis),
   fixed per-packet size, so the packet count scales with the data. *)
let scaled cfg factor =
  if factor < 1 then invalid_arg "Isosurface.scaled: factor must be >= 1";
  let f = float_of_int factor ** (1.0 /. 3.0) in
  let dim =
    max cfg.grid_dim
      (int_of_float (Float.round (float_of_int cfg.grid_dim *. f)))
  in
  let per = per_packet cfg in
  let cubes = dim * dim * dim in
  { cfg with grid_dim = dim; num_packets = max 1 ((cubes + per - 1) / per) }

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_cubes";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "Cube");
      };
  ]

let externs cfg = [ read_cubes_extern cfg ]
let externs_cached cfg ds = [ read_cubes_cached_extern cfg ds ]
let source_externs = [ "read_cubes" ]

let runtime_defs cfg =
  [
    ("grid_dim", cfg.grid_dim);
    ("screen_w", cfg.screen);
    ("screen_h", cfg.screen);
    ("iso_millis", cfg.iso_millis);
    ("view_millideg", cfg.view_millideg);
  ]

(* --- PipeLang sources ------------------------------------------------ *)

let prelude =
  {|
class Cube {
  float x; float y; float z;
  float v000; float v001; float v010; float v011;
  float v100; float v101; float v110; float v111;
}

class Tri {
  float x0; float y0; float z0;
  float x1; float y1; float z1;
  float x2; float y2; float z2;
  float shade;
}

bool crosses(Cube c, float iso) {
  float lo1 = fmin(fmin(c.v000, c.v001), fmin(c.v010, c.v011));
  float lo2 = fmin(fmin(c.v100, c.v101), fmin(c.v110, c.v111));
  float hi1 = fmax(fmax(c.v000, c.v001), fmax(c.v010, c.v011));
  float hi2 = fmax(fmax(c.v100, c.v101), fmax(c.v110, c.v111));
  float lo = fmin(lo1, lo2);
  float hi = fmax(hi1, hi2);
  return lo <= iso && iso <= hi;
}

void emit_tri(List<Tri> tris, float x0, float y0, float z0,
              float x1, float y1, float z1,
              float x2, float y2, float z2, float shade) {
  Tri a = new Tri();
  a.x0 = x0;
  a.y0 = y0;
  a.z0 = z0;
  a.x1 = x1;
  a.y1 = y1;
  a.z1 = z1;
  a.x2 = x2;
  a.y2 = y2;
  a.z2 = z2;
  a.shade = shade;
  tris.add(a);
}

void extract(Cube c, float iso, List<Tri> tris) {
  float d = c.v111 - c.v000;
  float t = (iso - c.v000) / (d + 0.000001);
  float u = fmin(1.0, fmax(0.0, t));
  float w = 1.0 - u;
  float s1 = fmin(1.0, fabs(d) * 2.0);
  emit_tri(tris, c.x + u, c.y, c.z + u,
           c.x, c.y + u, c.z + w,
           c.x + w, c.y + u, c.z, s1);
  emit_tri(tris, c.x + w, c.y + 1.0, c.z + u,
           c.x + 1.0, c.y + w, c.z + u,
           c.x + u, c.y + 1.0, c.z + w, fmin(1.0, fabs(d)));
  if (c.v000 > iso) {
    emit_tri(tris, c.x + u, c.y + w, c.z,
             c.x + 1.0, c.y + u, c.z + w,
             c.x + w, c.y, c.z + u, s1 * 0.8);
  }
  if (c.v110 > iso) {
    emit_tri(tris, c.x, c.y + u, c.z + u,
             c.x + w, c.y + 1.0, c.z + w,
             c.x + u, c.y + w, c.z + 1.0, s1 * 0.6);
  }
}

void project(Tri t, float ca, float sa, float half, float scale, float xoff,
             List<Tri> polys) {
  Tri q = new Tri();
  q.x0 = ((t.x0 - half) * ca + (t.z0 - half) * sa) * scale + xoff;
  q.z0 = (half - t.x0) * sa + (t.z0 - half) * ca + 1000.0;
  q.y0 = t.y0 * scale;
  q.x1 = ((t.x1 - half) * ca + (t.z1 - half) * sa) * scale + xoff;
  q.z1 = (half - t.x1) * sa + (t.z1 - half) * ca + 1000.0;
  q.y1 = t.y1 * scale;
  q.x2 = ((t.x2 - half) * ca + (t.z2 - half) * sa) * scale + xoff;
  q.z2 = (half - t.x2) * sa + (t.z2 - half) * ca + 1000.0;
  q.y2 = t.y2 * scale;
  q.shade = t.shade;
  polys.add(q);
}
|}

let zbuffer_defs =
  {|
class ZBuffer implements Reducinterface {
  int w;
  int h;
  float[] depth;
  float[] color;
  void merge(ZBuffer other) {
    for (int i = 0; i < this.w * this.h; i = i + 1) {
      if (other.depth[i] < this.depth[i]) {
        this.depth[i] = other.depth[i];
        this.color[i] = other.color[i];
      }
    }
  }
}

ZBuffer make_zbuffer(int w, int h) {
  ZBuffer z = new ZBuffer();
  z.w = w;
  z.h = h;
  z.depth = new float[w * h];
  z.color = new float[w * h];
  for (int i = 0; i < w * h; i = i + 1) {
    z.depth[i] = 1000000000.0;
    z.color[i] = 0.0;
  }
  return z;
}

void splat(ZBuffer z, float x, float y, float d, float s) {
  int ix = int_of_float(x);
  int iy = int_of_float(y);
  if (ix >= 0 && ix < z.w && iy >= 0 && iy < z.h) {
    int idx = iy * z.w + ix;
    if (d < z.depth[idx]) {
      z.depth[idx] = d;
      z.color[idx] = s;
    }
  }
}

void rasterize(Tri t, ZBuffer z) {
  float minx = fmin(t.x0, fmin(t.x1, t.x2));
  float maxx = fmax(t.x0, fmax(t.x1, t.x2));
  float miny = fmin(t.y0, fmin(t.y1, t.y2));
  float maxy = fmax(t.y0, fmax(t.y1, t.y2));
  float avgz = (t.z0 + t.z1 + t.z2) / 3.0;
  for (int sy = 0; sy < 5; sy = sy + 1) {
    float py = miny + (maxy - miny) * float_of_int(sy) / 4.0;
    for (int sx = 0; sx < 5; sx = sx + 1) {
      float px = minx + (maxx - minx) * float_of_int(sx) / 4.0;
      float frac = float_of_int(sx + sy) / 8.0;
      splat(z, px, py, avgz + frac * 0.001, t.shade);
    }
  }
}
|}

let pipeline_common =
  {|
  List<Cube> cubes = read_cubes(p);
  float iso = float_of_int(runtime_define iso_millis) / 1000.0;
  List<Cube> acubes = new List<Cube>();
  foreach (c in cubes where crosses(c, iso)) {
    acubes.add(c);
  }
  List<Tri> tris = new List<Tri>();
  foreach (c in acubes) {
    extract(c, iso, tris);
  }
  float ang = float_of_int(runtime_define view_millideg) / 1000.0;
  float ca = cos(ang);
  float sa = sin(ang);
  float half = float_of_int(runtime_define grid_dim) / 2.0;
  float scale = float_of_int(runtime_define screen_w)
                / (float_of_int(runtime_define grid_dim) * 1.5);
  float xoff = float_of_int(runtime_define screen_w) / 2.0;
  List<Tri> polys = new List<Tri>();
  foreach (t in tris) {
    project(t, ca, sa, half, scale, xoff, polys);
  }
|}

(* The z-buffer variant (Figures 5 and 6). *)
let zbuffer_source =
  prelude ^ zbuffer_defs
  ^ {|
ZBuffer zfinal = make_zbuffer(runtime_define screen_w, runtime_define screen_h);

pipelined (p in [0 : runtime_define num_packets]) {
|}
  ^ pipeline_common
  ^ {|
  ZBuffer local = make_zbuffer(runtime_define screen_w, runtime_define screen_h);
  foreach (q in polys) {
    rasterize(q, local);
  }
  zfinal.merge(local);
}
|}

let apix_defs =
  {|
class Pixel {
  int idx;
  float depth;
  float shade;
}

class APix implements Reducinterface {
  List<Pixel> pix;
  void merge(APix other) {
    List<Pixel> merged = new List<Pixel>();
    int i = 0;
    int j = 0;
    int n = this.pix.size();
    int m = other.pix.size();
    while (i < n || j < m) {
      if (j >= m) {
        merged.add(this.pix.get(i));
        i = i + 1;
      } else {
        if (i >= n) {
          merged.add(other.pix.get(j));
          j = j + 1;
        } else {
          Pixel a = this.pix.get(i);
          Pixel b = other.pix.get(j);
          if (a.idx < b.idx) {
            merged.add(a);
            i = i + 1;
          } else {
            if (b.idx < a.idx) {
              merged.add(b);
              j = j + 1;
            } else {
              if (b.depth < a.depth) {
                merged.add(b);
              } else {
                merged.add(a);
              }
              i = i + 1;
              j = j + 1;
            }
          }
        }
      }
    }
    this.pix = merged;
  }
}
|}

(* The active-pixels variant (Figures 7 and 8): the dense per-packet
   scratch buffer is compacted to a sparse, idx-sorted pixel list before
   it crosses any filter boundary, so neither the stream nor the
   reduction state carries a full z-buffer. *)
let apix_source =
  prelude ^ zbuffer_defs ^ apix_defs
  ^ {|
APix afinal = new APix();

pipelined (p in [0 : runtime_define num_packets]) {
|}
  ^ pipeline_common
  ^ {|
  ZBuffer scratch = make_zbuffer(runtime_define screen_w, runtime_define screen_h);
  foreach (q in polys) {
    rasterize(q, scratch);
  }
  int npix = runtime_define screen_w * runtime_define screen_h;
  APix local = new APix();
  foreach (i in [0 : npix] where scratch.depth[i] < 999999999.0) {
    Pixel e = new Pixel();
    e.idx = i;
    e.depth = scratch.depth[i];
    e.shade = scratch.color[i];
    local.pix.add(e);
  }
  afinal.merge(local);
}
|}

(* --- result helpers -------------------------------------------------- *)

(* Extract (depth, color) arrays from a final ZBuffer value. *)
let zbuffer_arrays = function
  | V.Vobject o ->
      let arr name = V.as_floats (V.field o name) in
      (arr "depth", arr "color")
  | v -> V.runtime_errorf "expected ZBuffer, got %s" (V.type_name v)

(* Extract the (idx, depth, shade) triples from a final APix value. *)
let apix_pixels = function
  | V.Vobject o ->
      let l = V.as_list (V.field o "pix") in
      V.Vec.to_list l
      |> List.map (fun e ->
             let o = V.as_object e in
             ( V.as_int (V.field o "idx"),
               V.as_float (V.field o "depth"),
               V.as_float (V.field o "shade") ))
  | v -> V.runtime_errorf "expected APix, got %s" (V.type_name v)
