(* Tests for candidate boundary selection and loop fission (§4.1). *)

module A = Alcotest
open Core
open Lang

let prog_of body =
  Parser.parse
    (Printf.sprintf
       {|
class T { float a; float b; bool keep; }
class R implements Reducinterface {
  int n;
  void merge(R other) { this.n = this.n + other.n; }
}
float work(float x) { return x * 2.0; }
R acc = new R();
pipelined (p in [0 : 4]) { %s }
|}
       body)

let segment_labels body =
  let prog = prog_of body in
  Boundary.segments_of_body prog.Ast.pipeline.Ast.pd_body
  |> List.map (fun s -> s.Boundary.seg_label)

let test_plain_glued () =
  (* plain statements glue onto the next boundary-worthy statement *)
  let labels =
    segment_labels
      "int x = 1; int y = x + 2; foreach (i in [0 : 10]) { y = y + 0; } \
       acc.merge(acc);"
  in
  A.(check (list string)) "labels" [ "foreach [0 : 10]"; "call merge" ] labels

let test_trailing_tail_segment () =
  let labels =
    segment_labels "foreach (i in [0 : 10]) { int z = i; } int w = 3;"
  in
  A.(check (list string)) "labels" [ "foreach [0 : 10]"; "tail" ] labels

let test_call_decl_is_boundary () =
  (* a declaration initialized by a user-function call is a candidate
     (start/end of a function call) *)
  let labels =
    segment_labels "float v = work(1.0); foreach (i in [0 : 2]) { v = v + 0.0; }"
  in
  A.(check int) "two segments" 2 (List.length labels)

let test_builtin_call_not_boundary () =
  let labels =
    segment_labels
      "float v = sqrt(2.0); foreach (i in [0 : 2]) { v = v + 0.0; }"
  in
  A.(check int) "one segment" 1 (List.length labels)

let test_conditional_atomic () =
  let labels =
    segment_labels
      "int x = 0; if (x > 0) { x = 1; } foreach (i in [0 : 2]) { x = x + 0; }"
  in
  A.(check (list string)) "labels" [ "if (x > 0)"; "foreach [0 : 2]" ] labels

let test_while_atomic () =
  let labels = segment_labels "int x = 0; while (x < 3) { x = x + 1; }" in
  A.(check (list string)) "labels" [ "while" ] labels

(* --- fission --- *)

let fission_count body =
  let prog = prog_of body in
  Boundary.fission_body prog.Ast.pipeline.Ast.pd_body
  |> List.filter (fun (st : Ast.stmt) ->
         match st.Ast.s with Ast.Sforeach _ -> true | _ -> false)
  |> List.length

let test_fission_independent_stmts () =
  (* two independent element-field writes can be fissioned *)
  let n =
    fission_count
      "List<T> ts = read_ts(p); foreach (t in ts) { t.a = t.a * 2.0; t.b = \
       t.b + 1.0; }"
  in
  A.(check int) "split into 2" 2 n

let test_no_fission_across_local () =
  (* a scalar local live across the split point blocks fission *)
  let n =
    fission_count
      "List<T> ts = read_ts(p); foreach (t in ts) { float d = t.a * 2.0; t.b \
       = d; }"
  in
  A.(check int) "kept whole" 1 n

let test_no_fission_across_outer_write_read () =
  (* writing an outer scalar then reading it would reorder across
     elements; fission must not split there *)
  let n =
    fission_count
      "float s = 0.0; List<T> ts = read_ts(p); foreach (t in ts) { s = t.a; \
       t.b = s; }"
  in
  A.(check int) "kept whole" 1 n

let test_fission_preserves_semantics () =
  (* run the same program with a hand-fissioned body and compare *)
  let src body =
    Printf.sprintf
      {|
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
R acc = new R();
pipelined (p in [0 : 3]) {
  List<float> xs = new List<float>();
  foreach (i in [0 : 5]) { xs.add(float_of_int(i + p)); }
  R local = new R();
  %s
  acc.merge(local);
}
|}
      body
  in
  let run body =
    let prog = Parser.parse (src body) in
    Typecheck.check prog;
    let ctx = Interp.create_ctx prog in
    let genv = Interp.run_reference ctx in
    match Interp.global_value genv "acc" with
    | Value.Vobject o -> Value.as_float (Value.field o "x")
    | _ -> A.fail "expected object"
  in
  let fused = run "foreach (x in xs) { local.x += x; local.x += x * 2.0; }" in
  let prog = Parser.parse (src "foreach (x in xs) { local.x += x; local.x += x * 2.0; }") in
  Typecheck.check prog;
  (* mechanically fission and re-run through the interpreter *)
  let fissioned_body = Boundary.fission_body prog.Ast.pipeline.Ast.pd_body in
  let prog' =
    {
      prog with
      Ast.pipeline = { prog.Ast.pipeline with Ast.pd_body = fissioned_body };
    }
  in
  let ctx = Interp.create_ctx prog' in
  let genv = Interp.run_reference ctx in
  let fissioned =
    match Interp.global_value genv "acc" with
    | Value.Vobject o -> Value.as_float (Value.field o "x")
    | _ -> A.fail "expected object"
  in
  A.(check (float 1e-9)) "fission preserves result" fused fissioned

let split_points body =
  match
    List.filter_map
      (fun (st : Ast.stmt) ->
        match st.Ast.s with Ast.Sforeach fe -> Some fe | _ -> None)
      (prog_of body).Ast.pipeline.Ast.pd_body
  with
  | [ fe ] -> Boundary.foreach_split_points fe
  | _ -> A.fail "expected one foreach"

let test_split_points_basic () =
  A.(check (list int)) "all gaps legal" [ 1; 2 ]
    (split_points
       "List<T> ts = read_ts(p); foreach (t in ts) { t.a = 1.0; t.b = 2.0; \
        t.keep = true; }")

let test_lvalue_index_call_blocks_split () =
  (* the method call in the index may advance [c], which the second
     statement reads: splitting would run every c.next() before the
     first c.last() *)
  A.(check (list int)) "no legal gap" []
    (split_points
       "List<T> ts = read_ts(p); float[] b = new float[4]; foreach (t in ts) \
        { b[c.next()] = t.a; t.b = c.last(); }")

let suite =
  [
    ("plain stmts glued", `Quick, test_plain_glued);
    ("trailing tail segment", `Quick, test_trailing_tail_segment);
    ("call decl is boundary", `Quick, test_call_decl_is_boundary);
    ("builtin call not boundary", `Quick, test_builtin_call_not_boundary);
    ("conditional atomic", `Quick, test_conditional_atomic);
    ("while atomic", `Quick, test_while_atomic);
    ("fission independent stmts", `Quick, test_fission_independent_stmts);
    ("no fission across local", `Quick, test_no_fission_across_local);
    ("no fission across outer flow", `Quick, test_no_fission_across_outer_write_read);
    ("fission preserves semantics", `Quick, test_fission_preserves_semantics);
    ("split points basic", `Quick, test_split_points_basic);
    ("lvalue index call blocks split", `Quick, test_lvalue_index_call_blocks_split);
  ]

let () = Alcotest.run "boundary" [ ("boundary", suite) ]
