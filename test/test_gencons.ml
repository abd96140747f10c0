(* Tests for the one-pass Gen/Cons analysis (Figure 2). *)

module A = Alcotest
open Core
open Lang

(* Parse a program whose pipelined body is [body]; analyze the whole body
   as one segment. *)
let analyze ?(decls = "") body =
  let src =
    Printf.sprintf
      {|
class T { float a; float b; bool keep; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
%s
pipelined (p in [0 : 4]) { %s }
|}
      decls body
  in
  let prog = Parser.parse src in
  let ctx = Gencons.create_ctx prog prog.Ast.pipeline.Ast.pd_body in
  Gencons.analyze_segment ctx prog.Ast.pipeline.Ast.pd_body

(* Analyze only the [i]th segment of the segmented body. *)
let analyze_seg ?(decls = "") body i =
  let src =
    Printf.sprintf
      {|
class T { float a; float b; bool keep; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
%s
pipelined (p in [0 : 4]) { %s }
|}
      decls body
  in
  let si = (Reqcomm.analyze (Parser.parse src)).Reqcomm.segs.(i) in
  (si.Reqcomm.si_gen, si.Reqcomm.si_cons)

let has set item = Varset.mem item set
let v x = Varset.Var x
let f c fl = Varset.ElemField (c, fl)
let coll c = Varset.Coll c

let test_assignment () =
  let gen, cons = analyze "int x = 0; int y = x + p;" in
  A.(check bool) "x gen" true (has gen (v "x"));
  A.(check bool) "y gen" true (has gen (v "y"));
  A.(check bool) "x not cons (defined before use)" false (has cons (v "x"));
  A.(check bool) "p cons" true (has cons (v "p"))

let test_use_before_def () =
  let gen, cons = analyze "int y = p; int x = y + 1; y = 2;" in
  A.(check bool) "y gen" true (has gen (v "y"));
  A.(check bool) "y not cons" false (has cons (v "y"));
  ignore gen

let test_conditional_gen_not_added () =
  (* Figure 2: Gen of a conditional block is not added *)
  let gen, cons = analyze "int x = 0; if (p > 0) { x = 1; } int y = x;" in
  ignore cons;
  A.(check bool) "x gen from unconditional decl" true (has gen (v "x"));
  let gen2, cons2 = analyze "if (p > 0) { int q = 1; q = q + 1; }" in
  A.(check bool) "no gen from branch" true (Varset.is_empty gen2);
  A.(check bool) "branch-local not cons" false (has cons2 (v "q"))

let test_conditional_cons_added () =
  let _, cons = analyze "int y = 0; if (p > 0) { y = y + p; }" in
  A.(check bool) "p cons" true (has cons (v "p"))

let test_self_update_in_both () =
  (* a reduction-style self-update consumes its previous value *)
  let gen, cons = analyze_seg ~decls:"" "foreach (i in [0 : 3]) { s = s + 1.0; }" 0 in
  ignore gen;
  (* s is undeclared here -> opaque scalar *)
  A.(check bool) "s consumed" true (has cons (v "s"))

let test_counted_loop_sections () =
  let gen, cons =
    analyze
      "float[] a = new float[10]; for (int i = 0; i < 10; i = i + 1) { a[i] \
       = 1.0; } float z = a[5];"
  in
  A.(check bool) "a fully generated" true
    (has gen (Varset.Arr ("a", Section.Range (Section.Bconst 0, Section.Bconst 10))));
  A.(check bool) "a not consumed (covered by loop)" false
    (has cons (Varset.Arr ("a", Section.Range (Section.Bconst 5, Section.Bconst 6))))

let test_loop_reads_become_sections () =
  let _, cons =
    analyze ~decls:"float[] b;"
      "float s = 0.0; for (int i = 0; i < 8; i = i + 1) { s = s + b[i]; } \
       float t = s;"
  in
  (* b is a global array: the read should cover [0:8] *)
  A.(check bool) "b[0:8] consumed" true
    (has cons (Varset.Arr ("b", Section.Range (Section.Bconst 0, Section.Bconst 8))))

let test_symbolic_loop_bounds () =
  let gen, _ =
    analyze
      "int n = p + 1; float[] a = new float[n]; for (int i = 0; i < n; i = i \
       + 1) { a[i] = 0.0; }"
  in
  A.(check bool) "gen with symbolic hi" true
    (has gen (Varset.Arr ("a", Section.Range (Section.Bconst 0, Section.Bsym "n"))))

let test_while_drops_array_gen () =
  let gen, _ =
    analyze
      "float[] a = new float[4]; int i = 0; while (i < 4) { a[i] = 1.0; i = \
       i + 1; }"
  in
  (* cannot prove coverage for the unstructured loop, but the decl's
     whole-array gen remains *)
  A.(check bool) "decl gen remains" true
    (has gen (Varset.Arr ("a", Section.Whole)))

let test_foreach_elem_fields () =
  let gen, cons =
    analyze_seg ~decls:""
      "List<T> ts = read_ts(p); foreach (t in ts) { t.b = t.a * 2.0; }" 1
  in
  A.(check bool) "ts.b gen" true (has gen (f "ts" "b"));
  A.(check bool) "ts.a cons" true (has cons (f "ts" "a"));
  A.(check bool) "ts.a not gen" false (has gen (f "ts" "a"));
  A.(check bool) "coll structure cons" true (has cons (coll "ts"))

let test_foreach_where_partial_gen () =
  let gen, cons =
    analyze_seg ~decls:""
      "List<T> ts = read_ts(p); foreach (t in ts where t.keep) { t.b = 1.0; }"
      1
  in
  A.(check bool) "partial write not gen" false (has gen (f "ts" "b"));
  A.(check bool) "where field cons" true (has cons (f "ts" "keep"))

let test_list_add_generates () =
  let gen, cons =
    analyze_seg ~decls:""
      "List<T> ts = read_ts(p); List<T> sel = new List<T>(); foreach (t in \
       ts where t.keep) { sel.add(t); }"
      1
  in
  A.(check bool) "sel structure gen" true (has gen (coll "sel"));
  A.(check bool) "sel fields gen" true (has gen (f "sel" "a"));
  A.(check bool) "source fields cons" true (has cons (f "ts" "a"))

let test_extern_call_defines_result () =
  let gen, cons = analyze_seg "List<T> ts = read_ts(p);" 0 in
  A.(check bool) "collection gen" true (has gen (coll "ts"));
  A.(check bool) "fields gen" true (has gen (f "ts" "a"));
  A.(check bool) "p cons" true (has cons (v "p"))

let test_interprocedural_field_use () =
  (* the read happens in segment 0; the foreach segment consumes the
     fields the callee touches *)
  let gen, cons =
    analyze_seg
      ~decls:"float get_a(T t) { return t.a + t.b; }"
      "List<T> ts = read_ts(p); float s = 0.0; foreach (t in ts) { s = \
       get_a(t); }"
      1
  in
  ignore gen;
  A.(check bool) "callee field reads mapped" true (has cons (f "ts" "b"))

let test_interprocedural_field_def () =
  let gen, _ =
    analyze
      ~decls:"void set_b(T t) { t.b = 0.0; }"
      "List<T> ts = read_ts(p); foreach (t in ts) { set_b(t); }"
  in
  A.(check bool) "callee writes mapped" true (has gen (f "ts" "b"))

let test_callee_locals_do_not_leak () =
  let gen, cons =
    analyze
      ~decls:"float helper(float x) { float tmp = x * 2.0; return tmp; }"
      "float r = helper(3.0);"
  in
  A.(check bool) "tmp not gen" false (has gen (v "tmp"));
  A.(check bool) "tmp not cons" false (has cons (v "tmp"));
  A.(check bool) "x not cons" false (has cons (v "x"))

let test_method_this_mapping () =
  let gen, cons =
    analyze ~decls:""
      "R local = new R(); R other = new R(); local.merge(other);"
  in
  A.(check bool) "this.x mapped to local" true (has gen (f "local" "x"));
  A.(check bool) "other.x consumed" true (has cons (f "other" "x") || has gen (f "other" "x"))

let test_recursion_conservative () =
  let _, cons =
    analyze
      ~decls:"int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }"
      "int r = fib(p);"
  in
  A.(check bool) "arg consumed" true (has cons (v "p"))

let test_externs_called () =
  let src =
    {|
pipelined (p in [0 : 2]) {
  List<float> xs = read_data(p);
  float y = sqrt(2.0);
  emit(y);
  int[] b = new int[4];
  b[read_x(p)] = 1;
}
|}
  in
  let prog = Parser.parse src in
  let e = Gencons.externs_called prog prog.Ast.pipeline.Ast.pd_body in
  let module S = Set.Make (String) in
  A.(check bool) "read_data found" true (S.mem "read_data" e);
  A.(check bool) "emit found" true (S.mem "emit" e);
  A.(check bool) "call in an lvalue index found" true (S.mem "read_x" e);
  A.(check bool) "builtin sqrt excluded" false (S.mem "sqrt" e)

let suite =
  [
    ("assignment", `Quick, test_assignment);
    ("use before def", `Quick, test_use_before_def);
    ("conditional gen not added", `Quick, test_conditional_gen_not_added);
    ("conditional cons added", `Quick, test_conditional_cons_added);
    ("self-update consumed", `Quick, test_self_update_in_both);
    ("counted loop sections", `Quick, test_counted_loop_sections);
    ("loop reads sections", `Quick, test_loop_reads_become_sections);
    ("symbolic loop bounds", `Quick, test_symbolic_loop_bounds);
    ("while drops array gen", `Quick, test_while_drops_array_gen);
    ("foreach elem fields", `Quick, test_foreach_elem_fields);
    ("foreach where partial gen", `Quick, test_foreach_where_partial_gen);
    ("list add generates", `Quick, test_list_add_generates);
    ("extern call defines result", `Quick, test_extern_call_defines_result);
    ("interprocedural field use", `Quick, test_interprocedural_field_use);
    ("interprocedural field def", `Quick, test_interprocedural_field_def);
    ("callee locals don't leak", `Quick, test_callee_locals_do_not_leak);
    ("method this mapping", `Quick, test_method_this_mapping);
    ("recursion conservative", `Quick, test_recursion_conservative);
    ("externs_called", `Quick, test_externs_called);
  ]

let () = Alcotest.run "gencons" [ ("gencons", suite) ]
