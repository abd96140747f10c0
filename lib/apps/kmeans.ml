(* k-means clustering: a fifth application beyond the paper's four.

   §2.1 argues the generalized-reduction structure covers data-mining
   algorithms including clustering; this module demonstrates it.  One
   pipelined pass implements one k-means iteration: the data host assigns
   each point to its nearest centroid and accumulates per-centroid
   partial sums (a reduction), the view node divides sums by counts.
   The driver ([iterate]) re-runs the same compiled pipeline with updated
   centroids until convergence — the centroid positions are run-time
   configuration read through an extern, so no recompilation is needed
   between rounds. *)

open Lang
module V = Value

type config = {
  n_points : int;
  num_packets : int;
  k : int;
  seed : int;
}

let base = { n_points = 12000; num_packets = 12; k = 4; seed = 77 }
let tiny = { n_points = 240; num_packets = 4; k = 3; seed = 9 }

(* Clustered synthetic points: k true centers on a circle, points spread
   around them. *)
let true_center cfg j =
  let a = 2.0 *. Float.pi *. float_of_int j /. float_of_int cfg.k in
  (0.5 +. (0.3 *. cos a), 0.5 +. (0.3 *. sin a))

let point cfg i =
  let j = Prng.hash_int cfg.seed (3 * i) cfg.k in
  let cx, cy = true_center cfg j in
  let dx = (Prng.hash_float cfg.seed ((3 * i) + 1) -. 0.5) *. 0.16 in
  let dy = (Prng.hash_float cfg.seed ((3 * i) + 2) -. 0.5) *. 0.16 in
  (cx +. dx, cy +. dy)

let per_packet cfg = (cfg.n_points + cfg.num_packets - 1) / cfg.num_packets

let packet_range cfg p =
  let per = per_packet cfg in
  (p * per, min cfg.n_points ((p + 1) * per))

(* The centroid table shared with the externs: mutable between rounds. *)
type centroids = { cx : float array; cy : float array }

let initial_centroids cfg =
  (* spread starting guesses along the diagonal *)
  {
    cx = Array.init cfg.k (fun j -> 0.2 +. (0.6 *. float_of_int j /. float_of_int (max 1 (cfg.k - 1))));
    cy = Array.init cfg.k (fun j -> 0.2 +. (0.6 *. float_of_int j /. float_of_int (max 1 (cfg.k - 1))));
  }

let externs cfg (cents : centroids) : (string * Interp.extern_fn) list =
  [
    ( "read_pts",
      fun ctx args ->
        let p = V.as_int (List.hd args) in
        let lo, hi = packet_range cfg p in
        let pt = Interp.class_decl ctx "Pt" in
        let make = V.maker pt in
        let sx = V.float_slot pt "x" and sy = V.float_slot pt "y" in
        let vec = V.Vec.create () in
        for i = lo to hi - 1 do
          let x, y = point cfg i in
          let o = make () in
          o.V.floats.(sx) <- x;
          o.V.floats.(sy) <- y;
          V.Vec.push vec (V.Vobject o)
        done;
        ctx.Interp.counter.Opcount.mem_ops <-
          ctx.Interp.counter.Opcount.mem_ops + (16 * (hi - lo));
        V.Vlist vec );
    ( "centroid_x",
      fun _ctx args -> V.Vfloat cents.cx.(V.as_int (List.hd args)) );
    ( "centroid_y",
      fun _ctx args -> V.Vfloat cents.cy.(V.as_int (List.hd args)) );
  ]

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_pts";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "Pt");
      };
    Typecheck.{ ex_name = "centroid_x"; ex_params = [ Ast.Tint ]; ex_ret = Ast.Tfloat };
    Typecheck.{ ex_name = "centroid_y"; ex_params = [ Ast.Tint ]; ex_ret = Ast.Tfloat };
  ]

let source_externs = [ "read_pts" ]
let runtime_defs cfg = [ ("k", cfg.k) ]

let source =
  {|
class Pt {
  float x;
  float y;
}

class Sums implements Reducinterface {
  int k;
  float[] sx;
  float[] sy;
  int[] count;
  void merge(Sums other) {
    for (int i = 0; i < this.k; i = i + 1) {
      this.sx[i] = this.sx[i] + other.sx[i];
      this.sy[i] = this.sy[i] + other.sy[i];
      this.count[i] = this.count[i] + other.count[i];
    }
  }
}

Sums make_sums(int k) {
  Sums s = new Sums();
  s.k = k;
  s.sx = new float[k];
  s.sy = new float[k];
  s.count = new int[k];
  for (int i = 0; i < k; i = i + 1) {
    s.sx[i] = 0.0;
    s.sy[i] = 0.0;
    s.count[i] = 0;
  }
  return s;
}

float[] load_cx(int k) {
  float[] a = new float[k];
  for (int i = 0; i < k; i = i + 1) {
    a[i] = centroid_x(i);
  }
  return a;
}

float[] load_cy(int k) {
  float[] a = new float[k];
  for (int i = 0; i < k; i = i + 1) {
    a[i] = centroid_y(i);
  }
  return a;
}

Sums sums = make_sums(runtime_define k);

pipelined (p in [0 : runtime_define num_packets]) {
  List<Pt> pts = read_pts(p);
  float[] cx = load_cx(runtime_define k);
  float[] cy = load_cy(runtime_define k);
  Sums local = make_sums(runtime_define k);
  foreach (q in pts) {
    int best = 0;
    float bd = 1000000000.0;
    for (int i = 0; i < runtime_define k; i = i + 1) {
      float dx = q.x - cx[i];
      float dy = q.y - cy[i];
      float d = dx * dx + dy * dy;
      if (d < bd) {
        bd = d;
        best = i;
      }
    }
    local.sx[best] = local.sx[best] + q.x;
    local.sy[best] = local.sy[best] + q.y;
    local.count[best] = local.count[best] + 1;
  }
  sums.merge(local);
}
|}

(* Extract (sx, sy, count) from the final Sums value. *)
let sums_arrays = function
  | V.Vobject o ->
      ( V.as_floats (V.field o "sx"),
        V.as_floats (V.field o "sy"),
        V.as_array (V.field o "count") |> Array.map V.as_int )
  | v -> V.runtime_errorf "expected Sums, got %s" (V.type_name v)

(* New centroid positions from a round's sums (empty clusters keep their
   previous position). *)
let step_centroids (cents : centroids) (sx, sy, count) =
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        cents.cx.(i) <- sx.(i) /. float_of_int n;
        cents.cy.(i) <- sy.(i) /. float_of_int n
      end)
    count

(* Native single-round oracle against the same centroid table. *)
let oracle cfg (cents : centroids) =
  let sx = Array.make cfg.k 0.0
  and sy = Array.make cfg.k 0.0
  and count = Array.make cfg.k 0 in
  for i = 0 to cfg.n_points - 1 do
    let x, y = point cfg i in
    let best = ref 0 and bd = ref infinity in
    for j = 0 to cfg.k - 1 do
      let dx = x -. cents.cx.(j) and dy = y -. cents.cy.(j) in
      let d = (dx *. dx) +. (dy *. dy) in
      if d < !bd then begin
        bd := d;
        best := j
      end
    done;
    sx.(!best) <- sx.(!best) +. x;
    sy.(!best) <- sy.(!best) +. y;
    count.(!best) <- count.(!best) + 1
  done;
  (sx, sy, count)

(* Run [rounds] k-means iterations through a compiled pipeline executor:
   [run_round] executes one pipelined pass and returns the merged Sums
   value.  Returns the final centroid table and the movement of the last
   round. *)
let iterate cfg (cents : centroids) ~rounds ~run_round =
  let movement = ref infinity in
  for _ = 1 to rounds do
    let sums = run_round () in
    let prev = (Array.copy cents.cx, Array.copy cents.cy) in
    step_centroids cents (sums_arrays sums);
    let px, py = prev in
    movement :=
      Array.to_list (Array.init cfg.k (fun i ->
           let dx = cents.cx.(i) -. px.(i) and dy = cents.cy.(i) -. py.(i) in
           sqrt ((dx *. dx) +. (dy *. dy))))
      |> List.fold_left max 0.0
  done;
  !movement
