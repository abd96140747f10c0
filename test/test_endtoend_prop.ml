(* End-to-end property test: random PipeLang pipeline programs are
   compiled, decomposed, and run the way [cgppc run] runs them (planned
   by [Harness.run_compiled] on the calibrated cluster) at random widths
   and batch ceilings; the sink's reduction result must equal the
   sequential reference semantics.

   Programs are drawn from a schema exercising the analysis paths that
   matter: a collection of two-field elements read from a source, a
   random chain of transformation foreach segments (each writing one
   element field from a random expression over both fields and the
   segment's scalar locals), an optional where-compaction, a fold into a
   per-packet partial, and a merge into the reduction global. *)

module A = Alcotest
open Core
module V = Lang.Value

(* --- random expression over fields "t.a", "t.b" and constants --- *)

type rexpr =
  | Field_a
  | Field_b
  | Const of float
  | Add of rexpr * rexpr
  | Mul of rexpr * rexpr
  | Min of rexpr * rexpr

let rec rexpr_to_src = function
  | Field_a -> "t.a"
  | Field_b -> "t.b"
  | Const f -> Printf.sprintf "%.3f" f
  | Add (x, y) -> Printf.sprintf "(%s + %s)" (rexpr_to_src x) (rexpr_to_src y)
  | Mul (x, y) -> Printf.sprintf "(%s * %s)" (rexpr_to_src x) (rexpr_to_src y)
  | Min (x, y) ->
      Printf.sprintf "fmin(%s, %s)" (rexpr_to_src x) (rexpr_to_src y)

let gen_rexpr =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Field_a;
        return Field_b;
        map (fun f -> Const (Float.of_int (f mod 7) /. 4.0)) small_int;
      ]
  in
  fix
    (fun self n ->
      if n <= 0 then base
      else
        frequency
          [
            (2, base);
            (1, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Min (a, b)) (self (n / 2)) (self (n / 2)));
          ])
    2

type spec = {
  transforms : (bool * rexpr) list; (* target field (true = a), expr *)
  compact : bool;                   (* insert a where-compaction *)
  fold_expr : rexpr;
  widths : int array;
  batch : int;                      (* batch ceiling of the run *)
  strategy_default : bool;
}

let gen_spec =
  let open QCheck.Gen in
  let* n_transforms = 0 -- 3 in
  let* transforms =
    list_repeat n_transforms (pair bool gen_rexpr)
  in
  let* compact = bool in
  let* fold_expr = gen_rexpr in
  let* w = oneofl [ [| 1; 1; 1 |]; [| 2; 2; 1 |]; [| 3; 2; 1 |]; [| 4; 4; 1 |] ] in
  let* batch = oneofl [ 1; 4; 16 ] in
  let* strategy_default = bool in
  return { transforms; compact; fold_expr; widths = w; batch; strategy_default }

let print_spec spec =
  let b = Buffer.create 128 in
  List.iter
    (fun (to_a, e) ->
      Buffer.add_string b
        (Printf.sprintf "t.%s = %s; " (if to_a then "a" else "b") (rexpr_to_src e)))
    spec.transforms;
  Printf.sprintf
    "transforms=[%s] compact=%b fold=%s widths=%s batch=%d default=%b"
    (Buffer.contents b) spec.compact (rexpr_to_src spec.fold_expr)
    (String.concat "-" (Array.to_list (Array.map string_of_int spec.widths)))
    spec.batch spec.strategy_default

(* --- program construction --- *)

let source_of_spec spec =
  let b = Buffer.create 512 in
  Buffer.add_string b
    {|
class P {
  float a;
  float b;
}
class R implements Reducinterface {
  float x;
  int n;
  void merge(R other) {
    this.x = this.x + other.x;
    this.n = this.n + other.n;
  }
}
R acc = new R();
pipelined (p in [0 : runtime_define num_packets]) {
  List<P> ps = read_ps(p);
|};
  List.iteri
    (fun i (to_a, e) ->
      Buffer.add_string b
        (Printf.sprintf "  foreach (t in ps) { t.%s = %s; }\n"
           (if to_a then "a" else "b")
           (rexpr_to_src e));
      ignore i)
    spec.transforms;
  let coll =
    if spec.compact then begin
      Buffer.add_string b
        "  List<P> sel = new List<P>();\n\
        \  foreach (t in ps where t.a >= t.b) { sel.add(t); }\n";
      "sel"
    end
    else "ps"
  in
  Buffer.add_string b
    (Printf.sprintf
       "  R local = new R();\n\
       \  foreach (t in %s) {\n\
       \    local.x += %s;\n\
       \    local.n += 1;\n\
       \  }\n\
       \  acc.merge(local);\n\
        }\n"
       coll
       (rexpr_to_src spec.fold_expr));
  Buffer.contents b

let read_ps : string * Lang.Interp.extern_fn =
  ( "read_ps",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let vec = V.Vec.create () in
      for i = 0 to 39 do
        let o = V.make_object (Lang.Interp.class_decl ctx "P") in
        V.set_field o "a"
          (V.Vfloat (Apps.Prng.hash_float 21 ((p * 40 * 2) + (2 * i))));
        V.set_field o "b"
          (V.Vfloat (Apps.Prng.hash_float 21 ((p * 40 * 2) + (2 * i) + 1)));
        V.Vec.push vec (V.Vobject o)
      done;
      V.Vlist vec )

let externs_sig =
  [
    Lang.Typecheck.
      {
        ex_name = "read_ps";
        ex_params = [ Lang.Ast.Tint ];
        ex_ret = Lang.Ast.Tlist (Lang.Ast.Tclass "P");
      };
  ]

(* the calibrated cluster of the benchmark harness, width 1-1-1 *)
let pipeline = Apps.Harness.(pipeline_for default_cluster [| 1; 1; 1 |])

let run_spec ?backend spec =
  let source = source_of_spec spec in
  let compiled =
    Compile.compile ~source ~externs_sig ~externs:[ read_ps ] ~pipeline
      ~num_packets:6 ~source_externs:[ "read_ps" ]
      ~strategy:(if spec.strategy_default then Compile.Default else Compile.Decomp)
      ()
  in
  let _, results =
    Datacutter.Supervisor.ok_exn
      (Apps.Harness.run_compiled ?backend ~batch:spec.batch compiled
         ~cluster:Apps.Harness.default_cluster ~widths:spec.widths)
  in
  let reference = Compile.run_reference compiled in
  let extract l =
    match List.assoc "acc" l with
    | V.Vobject o -> (V.as_float (V.field o "x"), V.as_int (V.field o "n"))
    | _ -> A.fail "expected object"
  in
  let sx, sn = extract results in
  let rx, rn = extract reference in
  (* the element count is exact; float sums may differ by association
     across the merge tree *)
  sn = rn && abs_float (sx -. rx) < 1e-6 *. (1.0 +. abs_float rx)

let prop_random_pipelines =
  QCheck.Test.make ~name:"random pipelines: simulated == reference" ~count:60
    (QCheck.make gen_spec ~print:print_spec)
    run_spec

(* also run the decomposed pipelines on real domains, fewer cases *)
let prop_random_pipelines_parallel =
  QCheck.Test.make ~name:"random pipelines on domains: parallel == reference"
    ~count:10
    (QCheck.make gen_spec ~print:print_spec)
    (run_spec ~backend:Datacutter.Runtime.Par)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_pipelines; prop_random_pipelines_parallel ]

let () = Alcotest.run "endtoend" [ ("random programs", suite) ]
