(* Additional interpreter and front-end coverage: list operations,
   nested classes, rectdomain values, runtime defines, operation
   accounting details, and the app sources themselves round-tripping
   through the pretty-printer. *)

module A = Alcotest
open Lang
module V = Value

let run ?(externs = []) ?(runtime_defs = []) src =
  let prog = Parser.parse src in
  Typecheck.check
    ~externs:
      (List.map
         (fun (name, _) ->
           Typecheck.{ ex_name = name; ex_params = [ Ast.Tint ]; ex_ret = Ast.Tint })
         externs)
    prog;
  let ctx = Interp.create_ctx ~externs ~runtime_defs prog in
  (ctx, Interp.run_reference ctx)

let acc_template body =
  Printf.sprintf
    {|
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  %s
  result.merge(local);
}
|}
    body

let result_x genv =
  match Interp.global_value genv "result" with
  | V.Vobject o -> V.as_float (V.field o "x")
  | _ -> A.fail "expected object"

let test_list_get_and_size () =
  let _, genv =
    run
      (acc_template
         "List<float> xs = new List<float>(); xs.add(1.5); xs.add(2.5); \
          xs.add(3.0); local.x = xs.get(1) + float_of_int(xs.size());")
  in
  A.(check (float 1e-12)) "get+size" 5.5 (result_x genv)

let test_list_clear () =
  let _, genv =
    run
      (acc_template
         "List<int> xs = new List<int>(); xs.add(1); xs.clear(); local.x = \
          float_of_int(xs.size());")
  in
  A.(check (float 1e-12)) "cleared" 0.0 (result_x genv)

let test_nested_class_fields () =
  let src =
    {|
class Inner { float v; }
class Outer { Inner left; Inner right; }
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Outer o = new Outer();
  o.left = new Inner();
  o.right = new Inner();
  o.left.v = 4.0;
  o.right.v = 2.0;
  Acc local = new Acc();
  local.x = o.left.v / o.right.v;
  result.merge(local);
}
|}
  in
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  A.(check (float 1e-12)) "nested" 2.0 (result_x genv)

let test_rectdomain_value_and_foreach () =
  let _, genv =
    run
      (acc_template
         "Rectdomain r = [2 : 6]; foreach (i in r) { local.x += \
          float_of_int(i); }")
  in
  A.(check (float 1e-12)) "2+3+4+5" 14.0 (result_x genv)

let test_runtime_define_missing () =
  let src = acc_template "local.x = float_of_int(runtime_define missing);" in
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  match Interp.run_reference ctx with
  | exception V.Runtime_error msg ->
      A.(check bool) "names the define" true
        (Astring.String.is_infix ~affix:"missing" msg)
  | _ -> A.fail "expected runtime error"

let test_set_runtime_define () =
  let src = acc_template "local.x = float_of_int(runtime_define knob);" in
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  Interp.set_runtime_define ctx "knob" 17;
  A.(check (float 1e-12)) "value" 17.0 (result_x (Interp.run_reference ctx))

let test_extern_dispatch () =
  let twice : Interp.extern_fn =
   fun _ctx args -> V.Vint (2 * V.as_int (List.hd args))
  in
  let _, genv =
    run
      ~externs:[ ("twice", twice) ]
      (acc_template "local.x = float_of_int(twice(21));")
  in
  A.(check (float 1e-12)) "extern" 42.0 (result_x genv)

let test_unknown_function_errors () =
  let src = acc_template "local.x = float_of_int(nosuch(1));" in
  let prog = Parser.parse src in
  (* declared to the checker, but the host provides no such extern *)
  Typecheck.check
    ~externs:[ Typecheck.{ ex_name = "nosuch"; ex_params = [ Ast.Tint ]; ex_ret = Ast.Tint } ]
    prog;
  let ctx = Interp.create_ctx prog in
  match Interp.run_reference ctx with
  | exception V.Runtime_error msg ->
      A.(check bool) "unknown function" true
        (Astring.String.is_infix ~affix:"nosuch" msg)
  | _ -> A.fail "expected runtime error"

let test_builtin_math () =
  let _, genv =
    run
      (acc_template
         "local.x = sqrt(16.0) + fabs(-1.5) + floor(2.9) + ceil(0.1) + \
          fmin(1.0, 2.0) + fmax(1.0, 2.0) + float_of_int(imin(3, 4) + \
          imax(3, 4) + iabs(-5));")
  in
  A.(check (float 1e-9)) "math" (4.0 +. 1.5 +. 2.0 +. 1.0 +. 1.0 +. 2.0 +. 12.0)
    (result_x genv)

let test_trig_builtins () =
  let _, genv = run (acc_template "local.x = sin(0.0) + cos(0.0);") in
  A.(check (float 1e-12)) "sin0+cos0" 1.0 (result_x genv)

let test_mod_and_div_ints () =
  let _, genv =
    run (acc_template "int a = 17; int b = 5; local.x = float_of_int(a / b * 10 + a % b);")
  in
  A.(check (float 1e-12)) "div/mod" 32.0 (result_x genv)

let test_float_int_promotion () =
  let _, genv = run (acc_template "float f = 3; local.x = f + 1;") in
  A.(check (float 1e-12)) "promotion" 4.0 (result_x genv)

let test_alloc_counting () =
  let ctx, _ =
    run (acc_template "foreach (i in [0 : 10]) { Acc tmp = new Acc(); tmp.x = 0.0; }")
  in
  A.(check bool) "allocs counted" true (ctx.Interp.counter.Opcount.allocs >= 10)

let test_append_counting () =
  let ctx, _ =
    run
      (acc_template
         "List<int> xs = new List<int>(); foreach (i in [0 : 7]) { xs.add(i); }")
  in
  A.(check int) "appends" 7 ctx.Interp.counter.Opcount.appends

(* --- scoping semantics --- *)

(* [acc_template] with top-level declarations before the pipeline, type
   checked and run. *)
let run_acc ?(decls = "") body =
  let src =
    Printf.sprintf
      {|
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
  void bump(float d) { this.x = this.x + d; }
  float twice() { return this.x * 2.0; }
}
%s
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  %s
  result.merge(local);
}
|}
      decls body
  in
  let prog = Parser.parse src in
  Typecheck.check prog;
  Interp.run_reference (Interp.create_ctx prog)

let acc_x ?decls body = result_x (run_acc ?decls body)

let runtime_error_of ?decls body =
  match run_acc ?decls body with
  | exception V.Runtime_error msg -> msg
  | _ -> A.fail "expected a runtime error"

let type_error_of ?decls body =
  match run_acc ?decls body with
  | exception Srcloc.Error (_, msg) -> msg
  | _ -> A.fail "expected a type error"

let test_scope_shadowing () =
  A.(check (float 1e-12))
    "innermost binding wins, outer restored" 1232.0
    (acc_x
       "int x = 1; { int x = 2; local.x += float_of_int(x); { int x = 3; \
        local.x += float_of_int(x) * 10.0; } local.x += float_of_int(x) * \
        100.0; } local.x += float_of_int(x) * 1000.0;")

let test_scope_outer_before_redeclaration () =
  A.(check (float 1e-12))
    "outer read before inner decl" 57.0
    (acc_x
       "int x = 5; { int y = x; int x = 7; local.x = float_of_int(y * 10 + \
        x); }");
  A.(check (float 1e-12))
    "every iteration reads the outer x first" 210.0
    (acc_x
       "int x = 5; for (int i = 0; i < 2; i = i + 1) { local.x += \
        float_of_int(x); int x = 100; local.x += float_of_int(x); }")

let test_scope_fresh_zero_per_iteration () =
  A.(check (float 1e-12))
    "uninitialized decls restart at zero" 33.0
    (acc_x
       "for (int i = 0; i < 3; i = i + 1) { List<int> xs; xs.add(i); \
        local.x += float_of_int(xs.size()); int n; n += 1; local.x += \
        float_of_int(n) * 10.0; }")

let test_scope_recursion_frames () =
  let decls =
    "int f(int n) { int v = n; if (n > 0) { int r = f(n - 1); return v * 10 \
     + r; } return v; }"
  in
  let body = "local.x = float_of_int(f(3)) + float_of_int(f(f(1) + 1));" in
  A.(check (float 1e-12)) "each call keeps its own locals" 720.0
    (acc_x ~decls body)

let test_scope_this_in_methods () =
  A.(check (float 1e-12))
    "this is the receiver" 3.0
    (acc_x "local.bump(1.5); local.x = local.twice();")

let test_scope_nested_break_continue () =
  A.(check (float 1e-12))
    "break/continue bind to the innermost loop" 212.0
    (acc_x
       "for (int i = 0; i < 4; i = i + 1) { if (i == 3) { break; } foreach (j \
        in [0 : 10]) { if (j == 2) { continue; } if (j > 4) { break; } \
        local.x += 1.0; } if (i == 1) { continue; } local.x += 100.0; }")

let test_scope_function_cannot_see_globals () =
  A.(check string) "unbound in function" "unbound variable g"
    (type_error_of ~decls:"int g = 3; int f() { return g; }"
       "local.x = float_of_int(f());")

(* Packet code whose earlier segment is not compiled with it names a
   variable nothing binds: it compiles, and fails only if it runs. *)
let test_scope_unbound_in_dead_branch () =
  let prog =
    Parser.parse
      "float r = 0.0; pipelined (p in [0 : 1]) { float y = 2.0; if (p > 5) { \
       r = y; } r = r + 1.0; }"
  in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  let genv = Interp.init_globals ctx in
  let later = List.tl prog.Ast.pipeline.Ast.pd_body in
  let pk = Interp.compile_packet ctx genv ~inputs:[] [ later ] in
  Interp.run_segment pk 0 (Interp.new_frame pk ~packet:0);
  A.(check (float 1e-12)) "never executed, never fails" 1.0
    (V.as_float (Interp.global_value genv "r"));
  match Interp.run_segment pk 0 (Interp.new_frame pk ~packet:6) with
  | exception V.Runtime_error msg -> A.(check string) "executed" "unbound variable y" msg
  | () -> A.fail "read an unbound variable"

(* The checker rejects a call with the wrong argument count; a host's
   method call is checked when it runs. *)
let test_scope_arity_mismatch () =
  A.(check string) "checker" "f expects 2 argument(s), got 1"
    (type_error_of ~decls:"int f(int a, int b) { return a + b; }"
       "local.x = float_of_int(f(1));");
  let ctx, genv = run (acc_template "") in
  match Interp.call_method ctx (Interp.global_value genv "result") "merge" [] with
  | exception V.Runtime_error msg ->
      A.(check string) "host call" "merge: arity mismatch (1 expected, 0 given)" msg
  | _ -> A.fail "expected a runtime error"

(* --- out-of-range indexing is a runtime error everywhere --- *)

let test_lvalue_base_index_out_of_bounds () =
  let expected = "array index 5 out of bounds [0, 2)" in
  A.(check string) "store through a[5]" expected
    (runtime_error_of "Acc[] a = new Acc[2]; a[5].x = 1.0;");
  A.(check string) "update through a[5]" expected
    (runtime_error_of "Acc[] a = new Acc[2]; a[5].x += 1.0;")

let test_list_get_out_of_bounds () =
  A.(check string) "get past the end" "list index 3 out of bounds [0, 1)"
    (runtime_error_of
       "List<int> xs = new List<int>(); xs.add(1); local.x = \
        float_of_int(xs.get(3));");
  A.(check string) "negative get" "list index -1 out of bounds [0, 0)"
    (runtime_error_of
       "List<int> xs = new List<int>(); local.x = float_of_int(xs.get(0 - 1));")

(* --- app sources survive a pretty-print round trip --- *)

let roundtrip_app name source externs_sig =
  let prog = Parser.parse ~file:name source in
  Typecheck.check ~externs:externs_sig prog;
  let printed = Pretty.program_to_string prog in
  let reparsed = Parser.parse ~file:(name ^ "-printed") printed in
  Typecheck.check ~externs:externs_sig reparsed;
  A.(check string) (name ^ " fixpoint") printed (Pretty.program_to_string reparsed)

let test_app_sources_roundtrip () =
  roundtrip_app "zbuffer" Apps.Isosurface.zbuffer_source Apps.Isosurface.externs_sig;
  roundtrip_app "apix" Apps.Isosurface.apix_source Apps.Isosurface.externs_sig;
  roundtrip_app "knn" Apps.Knn.source Apps.Knn.externs_sig;
  roundtrip_app "vmscope" Apps.Vmscope.source Apps.Vmscope.externs_sig;
  roundtrip_app "kmeans" Apps.Kmeans.source Apps.Kmeans.externs_sig

(* reference executions of a pretty-printed program agree with the
   original *)
let test_roundtrip_execution_agrees () =
  let cfg = Apps.Knn.tiny in
  let run_prog source =
    let prog = Parser.parse source in
    Typecheck.check ~externs:Apps.Knn.externs_sig prog;
    let ctx =
      Interp.create_ctx ~externs:(Apps.Knn.externs cfg)
        ~runtime_defs:(("num_packets", cfg.Apps.Knn.num_packets) :: Apps.Knn.runtime_defs cfg)
        prog
    in
    let genv = Interp.run_reference ctx in
    Apps.Knn.knn_result (Interp.global_value genv "result")
  in
  let original = run_prog Apps.Knn.source in
  let printed =
    Pretty.program_to_string (Parser.parse Apps.Knn.source)
  in
  A.(check bool) "same results" true (original = run_prog printed)

let suite =
  [
    ("list get/size", `Quick, test_list_get_and_size);
    ("list clear", `Quick, test_list_clear);
    ("nested class fields", `Quick, test_nested_class_fields);
    ("rectdomain foreach", `Quick, test_rectdomain_value_and_foreach);
    ("runtime define missing", `Quick, test_runtime_define_missing);
    ("set runtime define", `Quick, test_set_runtime_define);
    ("extern dispatch", `Quick, test_extern_dispatch);
    ("unknown function", `Quick, test_unknown_function_errors);
    ("builtin math", `Quick, test_builtin_math);
    ("trig builtins", `Quick, test_trig_builtins);
    ("int div/mod", `Quick, test_mod_and_div_ints);
    ("int->float promotion", `Quick, test_float_int_promotion);
    ("alloc counting", `Quick, test_alloc_counting);
    ("append counting", `Quick, test_append_counting);
    ("app sources round-trip", `Quick, test_app_sources_roundtrip);
    ("round-trip execution agrees", `Quick, test_roundtrip_execution_agrees);
    ("scope shadowing", `Quick, test_scope_shadowing);
    ("scope outer before redeclaration", `Quick,
      test_scope_outer_before_redeclaration);
    ("scope fresh zero per iteration", `Quick,
      test_scope_fresh_zero_per_iteration);
    ("scope recursion frames", `Quick, test_scope_recursion_frames);
    ("scope this in methods", `Quick, test_scope_this_in_methods);
    ("scope nested break/continue", `Quick, test_scope_nested_break_continue);
    ("scope function cannot see globals", `Quick,
      test_scope_function_cannot_see_globals);
    ("scope unbound in dead branch", `Quick, test_scope_unbound_in_dead_branch);
    ("scope arity mismatch", `Quick, test_scope_arity_mismatch);
    ("lvalue base index out of bounds", `Quick,
      test_lvalue_base_index_out_of_bounds);
    ("list get out of bounds", `Quick, test_list_get_out_of_bounds);
  ]

(* [A] and [B] declare the same fields in the other order, mixed with
   [float] ones, so a field's index differs between them: each access
   resolves from its object's class. *)
let test_fields_resolve_per_class () =
  let prog =
    Parser.parse
      {|
class A { int x; float f; int y; }
class B { float f; int y; int x; }
A ga = new A();
B gb = new B();
A reads = new A();
int bump(A o, int k) {
  o.x = o.x + k;
  o.f += 0.5;
  return o.x;
}
int bump_b(B o, int k) {
  o.x += k;
  o.f = o.f + 0.25;
  return o.x;
}
pipelined (p in [0 : 1]) {
  ga.y = 100;
  gb.y = 200;
  for (int i = 0; i < 3; i = i + 1) {
    reads.x = reads.x + bump(ga, 1);
    reads.y = reads.y + bump_b(gb, 10);
  }
}
|}
  in
  Typecheck.check prog;
  let genv = Interp.run_reference (Interp.create_ctx prog) in
  let get g f = V.as_int (V.field (V.as_object (Interp.global_value genv g)) f) in
  A.(check int) "A.x written" 3 (get "ga" "x");
  A.(check int) "A.y untouched" 100 (get "ga" "y");
  A.(check int) "B.x written" 30 (get "gb" "x");
  A.(check int) "B.y untouched" 200 (get "gb" "y");
  A.(check int) "reads of A.x" 6 (get "reads" "x");
  A.(check int) "reads of B.x" 60 (get "reads" "y");
  let getf g = V.as_float (V.field (V.as_object (Interp.global_value genv g)) "f") in
  A.(check (float 0.0)) "A.f" 1.5 (getf "ga");
  A.(check (float 0.0)) "B.f" 0.75 (getf "gb")

let test_set_field_undeclared () =
  let prog = Parser.parse "class C { int x; } pipelined (p in [0 : 1]) { }" in
  let o = V.make_object (Option.get (Ast.find_class prog "C")) in
  match V.set_field o "nope" (V.Vint 1) with
  | exception V.Runtime_error msg ->
      A.(check string) "error" "object C has no field nope" msg
  | () -> A.fail "set_field added an undeclared field"

(* A constructor call with a wrong argument count is a type error. *)
let test_new_arity_mismatch () =
  let prog =
    Parser.parse
      "class C { int x; int y; } pipelined (p in [0 : 1]) { C c = new C(1); }"
  in
  match Typecheck.check prog with
  | exception Srcloc.Error (_, msg) ->
      A.(check string) "error" "new C expects 2 argument(s), got 1" msg
  | () -> A.fail "expected a type error"

(* int -> float widening stores a float at every site the checker
   accepts it: the float global [r] must read 1.5, not the int 1. *)
let widened_r ~decls body =
  let prog =
    Parser.parse
      (Printf.sprintf
         {|
class Box { float v; }
%s
float r = 0.0;
pipelined (p in [0 : 1]) {
  %s
}
|}
         decls body)
  in
  Typecheck.check prog;
  Interp.global_value (Interp.run_reference (Interp.create_ctx prog)) "r"

let check_float_r what expected r =
  match r with
  | V.Vfloat f -> A.(check (float 0.0)) what expected f
  | v -> A.failf "%s: r is a %s, expected a float" what (V.type_name v)

let test_widening_sites () =
  List.iter
    (fun (what, decls, body) ->
      check_float_r what 1.5 (widened_r ~decls body))
    [
      ("declaration", "", "float f = 3; r = f / 2;");
      ("global initializer", "float g = 3;", "r = g / 2;");
      ("assignment", "", "float f = 0.0; f = 3; r = f / 2;");
      ("call argument", "float half(float x) { return x / 2; }", "r = half(3);");
      ("constructor argument", "", "Box b = new Box(3); r = b.v / 2;");
      ("return", "float three() { return 3; }", "r = three() / 2;");
      ( "List.add",
        "",
        "List<float> xs = new List<float>(); xs.add(3); r = xs.get(0) / 2;" );
    ]

let test_widening_after_int_division () =
  (* the int expression is evaluated as an int, then widened *)
  check_float_r "3 / 2 widened" 1.0 (widened_r ~decls:"" "r = 3 / 2;")

let test_unchecked_rejected () =
  let prog = Parser.parse "float r = 0.0; pipelined (p in [0 : 1]) { float f = 3; r = f / 2; }" in
  match Interp.create_ctx prog with
  | exception Invalid_argument msg ->
      A.(check string) "error" "Interp.create_ctx: the program is not type-checked" msg
  | _ -> A.fail "ran a program the checker never saw"

let suite =
  suite
  @ [
      ("int to float widening at every site", `Quick, test_widening_sites);
      ("widening after int division", `Quick, test_widening_after_int_division);
      ("unchecked program is rejected", `Quick, test_unchecked_rejected);
      ("new with wrong argument count", `Quick, test_new_arity_mismatch);
      ("fields resolve per class", `Quick, test_fields_resolve_per_class);
      ("set_field undeclared field", `Quick, test_set_field_undeclared);
    ]

(* --- operator semantics ---

   What the executor's operators must keep, whatever the representation
   of their operands: comparisons order floats as [compare] does (a NaN
   below every float and equal to itself), [fmin]/[fmax] follow
   [Stdlib.min]/[max]'s argument order, integer division by zero
   raises, mixed arithmetic widens to float, and [+=] on a [float[]]
   element reads, adds and stores. *)

(* The globals [names] after one typed run of [body]. *)
let globals_after ~decls body names =
  let prog =
    Parser.parse
      (Printf.sprintf "%s\npipelined (p in [0 : 1]) {\n%s\n}\n" decls body)
  in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  (ctx, List.map (Interp.global_value genv) names)

let test_nan_comparisons () =
  let _, vs =
    globals_after
      ~decls:
        "bool lt = false; bool eq = false; bool ne = true; bool gt = false; \
         bool le = false; bool ge = true;"
      "float nan = 0.0 / 0.0; lt = nan < 1.0; eq = nan == nan; ne = nan != \
       nan; gt = 1.0 > nan; le = nan <= -1000000.0; ge = nan >= 1.0;"
      [ "lt"; "eq"; "ne"; "gt"; "le"; "ge" ]
  in
  List.iter2
    (fun what (expected, v) -> A.(check bool) what true (V.equal v (V.Vbool expected)))
    [ "nan < 1.0"; "nan == nan"; "nan != nan"; "1.0 > nan"; "nan <= -1e6"; "nan >= 1.0" ]
    (List.combine [ true; true; false; true; true; false ] vs)

let test_fmin_fmax_order () =
  let _, vs =
    globals_after
      ~decls:
        "float a = 0.0; float b = 0.0; float c = 0.0; float d = 0.0; float e \
         = 1.0; float f = 1.0; float g = 1.0; float h = 1.0;"
      "float nan = 0.0 / 0.0; a = fmin(nan, 1.0); b = fmin(1.0, nan); c = \
       fmax(nan, 1.0); d = fmax(1.0, nan); e = fmin(0.0, -0.0); f = \
       fmin(-0.0, 0.0); g = fmax(0.0, -0.0); h = fmax(-0.0, 0.0);"
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let f = List.map V.as_float vs in
  let get i = List.nth f i in
  A.(check (float 0.0)) "fmin(nan, 1.0)" 1.0 (get 0);
  A.(check bool) "fmin(1.0, nan) is nan" true (Float.is_nan (get 1));
  A.(check (float 0.0)) "fmax(nan, 1.0)" 1.0 (get 2);
  A.(check bool) "fmax(1.0, nan) is nan" true (Float.is_nan (get 3));
  List.iter2
    (fun what (i, negative) ->
      A.(check bool) what negative (Float.sign_bit (get i)))
    [ "fmin(0.0, -0.0) is +0"; "fmin(-0.0, 0.0) is -0"; "fmax(0.0, -0.0) is +0";
      "fmax(-0.0, 0.0) is -0" ]
    [ (4, false); (5, true); (6, false); (7, true) ]

let test_int_by_zero () =
  A.(check string) "division" "integer division by zero"
    (runtime_error_of "int a = 7; int z = 0; local.x = float_of_int(a / z);");
  A.(check string) "modulo" "integer modulo by zero"
    (runtime_error_of "int a = 7; int z = 0; local.x = float_of_int(a % z);");
  A.(check (float 0.0)) "float division by zero is infinite" infinity
    (acc_x "float z = 0.0; local.x = 1.0 / z;")

let test_mixed_widening () =
  let ctx, vs =
    globals_after ~decls:"float r = 0.0; int q = 0;"
      "int i = 3; float f = 0.5; r = f * i + i / 2; q = i / 2;" [ "r"; "q" ]
  in
  (match vs with
  | [ V.Vfloat r; V.Vint q ] ->
      A.(check (float 0.0)) "f * i + i / 2" 2.5 r;
      A.(check int) "i / 2 stays int" 1 q
  | _ -> A.fail "expected a float r and an int q");
  A.(check (float 0.0)) "int * float" 7.5
    (acc_x "int i = 3; local.x = i * 2.5;");
  let c = ctx.Interp.counter in
  A.(check (pair int int)) "(int, float) ops" (2, 2) (c.Opcount.int_ops, c.Opcount.float_ops)

let test_float_array_update () =
  let ctx, vs =
    globals_after ~decls:"float r = 0.0; float len = 0.0;"
      "float[] a = new float[3]; a[1] = 1.5; a[1] += 2.0; a[1] += 1; a[2] -= \
       0.25; a[0] *= 4.0; r = a[1]; foreach (x in a) { len += x; }"
      [ "r"; "len" ]
  in
  (match vs with
  | [ V.Vfloat r; V.Vfloat sum ] ->
      A.(check (float 0.0)) "a[1]" 4.5 r;
      A.(check (float 0.0)) "foreach sum" 4.25 sum
  | _ -> A.fail "expected floats");
  A.(check string) "update out of bounds" "array update index 3 out of bounds"
    (runtime_error_of "float[] a = new float[3]; a[3] += 1.0;");
  let c = ctx.Interp.counter in
  A.(check (list int)) "(int, float, mem) ops" [ 0; 7; 14 ]
    [ c.Opcount.int_ops; c.Opcount.float_ops; c.Opcount.mem_ops ]

(* A store's value is computed before its place is resolved; a float
   temporary of the place (here in the index) must not take the
   value's register. *)
let test_place_keeps_value_register () =
  let pre = "float x = 2.0; float y = 1.5; " in
  List.iter
    (fun (what, expected, body) ->
      A.(check (float 0.0)) what expected (acc_x (pre ^ body)))
    [
      ( "a[int_of_float(f)] += e", 7.0,
        "float[] a = new float[4]; a[3] = 1.0; a[int_of_float(y * 2.0)] += x \
         * 3.0; local.x = a[3];" );
      ( "a[int_of_float(f)] *= e", 6.0,
        "float[] a = new float[4]; a[3] = 1.0; a[int_of_float(y * 2.0)] *= x \
         * 3.0; local.x = a[3];" );
      ( "objs[int_of_float(f)].g = e", 6.0,
        "Acc[] ts = new Acc[4]; ts[3] = new Acc(); ts[int_of_float(y * \
         2.0)].x = x * 3.0; local.x = ts[3].x;" );
      ( "objs[int_of_float(f)].g += e", 7.0,
        "Acc[] ts = new Acc[4]; ts[3] = new Acc(); ts[3].x = 1.0; \
         ts[int_of_float(y * 2.0)].x += x * 3.0; local.x = ts[3].x;" );
    ]

(* Code computes [int]s and [float]s unboxed, yet a value that is no
   number fails with the message of the operator using it. *)
let test_checked_errors () =
  let err = runtime_error_of in
  List.iter
    (fun (what, expected, msg) -> A.(check string) what expected msg)
    [
      ( "int division", "integer division by zero",
        err "int a = 7; int z = 0; int q = a / z; local.x = float_of_int(q);" );
      ( "int modulo", "integer modulo by zero",
        err "int a = 7; int z = 0; local.x = float_of_int(a % z + 1);" );
      ( "float[] read in arithmetic", "array index 5 out of bounds [0, 3)",
        err "float[] a = new float[3]; float y = a[5] * 2.0 + 1.0; local.x = y;" );
      ( "negative float[] read", "array index -1 out of bounds [0, 3)",
        err "float[] a = new float[3]; int i = 0 - 1; local.x = 1.0 + a[i];" );
      ( "float field of null", "field .x of non-object null",
        err "Acc n; float y = n.x + 1.0; local.x = y;" );
      ( "no return, left operand", "arithmetic on void and float",
        err ~decls:"float g() { }" "float y = g() + 1.0; local.x = y;" );
      ( "no return, right operand", "arithmetic on int and void",
        err ~decls:"float g() { }" "int i = 2; local.x = i * g();" );
      ( "no return, compared", "comparison between void and float",
        err ~decls:"float g() { }" "if (g() < 1.0) { local.x = 1.0; }" );
      ( "no return, negated", "negation of void",
        err ~decls:"float g() { }" "float y = 0.0 - (-g()); local.x = y;" );
    ]

let operator_suite =
  [
    ("nan comparisons follow compare", `Quick, test_nan_comparisons);
    ("fmin/fmax argument order", `Quick, test_fmin_fmax_order);
    ("int division by zero", `Quick, test_int_by_zero);
    ("mixed arithmetic widens", `Quick, test_mixed_widening);
    ("float[] element update", `Quick, test_float_array_update);
    ("update place keeps the value's register", `Quick,
      test_place_keeps_value_register);
    ("checked code keeps the error messages", `Quick, test_checked_errors);
  ]

let () =
  Alcotest.run "interp-more"
    [ ("interp-more", suite); ("operators", operator_suite) ]
