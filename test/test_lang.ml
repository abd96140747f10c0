(* Tests for the PipeLang front end: lexer, parser, pretty-printer
   round-trips, type checker, and interpreter. *)

module A = Alcotest
open Lang

let parse_ok src = Parser.parse ~file:"test" src

let typecheck_ok ?externs src =
  let prog = parse_ok src in
  Typecheck.check ?externs prog;
  prog

(* A small but representative program: a reduction class, a helper
   function, a global reduction variable, and a pipelined loop with two
   foreach loops (the second with a where clause). *)
let sum_src =
  {|
class Acc implements Reducinterface {
  float total;
  int count;
  void merge(Acc other) {
    this.total = this.total + other.total;
    this.count = this.count + other.count;
  }
}

class Point {
  float x;
  float y;
  bool keep;
}

float dist2(Point a) {
  return a.x * a.x + a.y * a.y;
}

Acc result = new Acc();

pipelined (p in [0 : runtime_define num_packets]) {
  List<Point> pts = read_points(p);
  foreach (q in pts) {
    q.keep = dist2(q) < 1.0;
  }
  Acc local = new Acc();
  foreach (q in pts where q.keep) {
    local.total += q.x;
    local.count += 1;
  }
  result.merge(local);
}
|}

let read_points_extern n_per_packet : (string * Interp.extern_fn) =
  ( "read_points",
    fun ctx args ->
      let p = Value.as_int (List.hd args) in
      let l = Value.Vec.create () in
      for i = 0 to n_per_packet - 1 do
        let o = Value.make_object (Interp.class_decl ctx "Point") in
        let x = float_of_int ((p * n_per_packet) + i) /. 100.0 in
        Value.set_field o "x" (Value.Vfloat x);
        Value.set_field o "y" (Value.Vfloat 0.0);
        Value.set_field o "keep" (Value.Vbool false);
        Value.Vec.push l (Value.Vobject o)
      done;
      Value.Vlist l )

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_points";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "Point");
      };
  ]

(* --- lexer --- *)

let test_lex_simple () =
  let toks = Lexer.tokenize "foreach (x in [0 : 10]) { x += 1; }" in
  let kinds = List.map (fun l -> l.Lexer.tok) toks in
  A.(check int) "token count" 17 (List.length kinds);
  A.(check bool) "starts with foreach" true (List.hd kinds = Token.KW_FOREACH);
  A.(check bool)
    "ends with EOF" true
    (List.nth kinds (List.length kinds - 1) = Token.EOF)

let test_lex_comments () =
  let toks =
    Lexer.tokenize "a // line comment\n /* block \n comment */ b"
  in
  let idents =
    List.filter_map
      (fun l -> match l.Lexer.tok with Token.IDENT s -> Some s | _ -> None)
      toks
  in
  A.(check (list string)) "comments skipped" [ "a"; "b" ] idents

let test_lex_numbers () =
  let toks = Lexer.tokenize "42 3.5 1e3 2.5e-2 7" in
  let nums =
    List.filter_map
      (fun l ->
        match l.Lexer.tok with
        | Token.INT n -> Some (float_of_int n)
        | Token.FLOAT f -> Some f
        | _ -> None)
      toks
  in
  A.(check (list (float 1e-9))) "numbers" [ 42.; 3.5; 1000.; 0.025; 7. ] nums

let test_lex_operators () =
  let toks = Lexer.tokenize "a += b == c && d <= e != f || !g" in
  let has t = List.exists (fun l -> l.Lexer.tok = t) toks in
  A.(check bool) "+=" true (has Token.PLUS_ASSIGN);
  A.(check bool) "==" true (has Token.EQ);
  A.(check bool) "&&" true (has Token.AND);
  A.(check bool) "<=" true (has Token.LE);
  A.(check bool) "!=" true (has Token.NE);
  A.(check bool) "||" true (has Token.OR);
  A.(check bool) "!" true (has Token.NOT)

let test_lex_string_escapes () =
  let toks = Lexer.tokenize {|"a\nb\t\"q\""|} in
  match (List.hd toks).Lexer.tok with
  | Token.STRING s -> A.(check string) "escapes" "a\nb\t\"q\"" s
  | _ -> A.fail "expected string token"

let test_lex_error_loc () =
  match Lexer.tokenize "a\nb\n  @" with
  | exception Srcloc.Error (loc, _) ->
      A.(check int) "line" 3 loc.Srcloc.line;
      A.(check int) "col" 2 loc.Srcloc.col
  | _ -> A.fail "expected lex error"

(* --- parser --- *)

let test_parse_program () =
  let prog = parse_ok sum_src in
  A.(check int) "classes" 2 (List.length prog.Ast.classes);
  A.(check int) "funcs" 1 (List.length prog.Ast.funcs);
  A.(check int) "globals" 1 (List.length prog.Ast.globals);
  A.(check int) "pipeline stmts" 5 (List.length prog.Ast.pipeline.Ast.pd_body)

let test_parse_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3 < 4 && true || false" in
  (* ((1 + (2*3)) < 4 && true) || false *)
  match e.Ast.e with
  | Ast.Ebinop (Ast.Or, lhs, _) -> (
      match lhs.Ast.e with
      | Ast.Ebinop (Ast.And, cmp, _) -> (
          match cmp.Ast.e with
          | Ast.Ebinop (Ast.Lt, add, _) -> (
              match add.Ast.e with
              | Ast.Ebinop (Ast.Add, _, mul) -> (
                  match mul.Ast.e with
                  | Ast.Ebinop (Ast.Mul, _, _) -> ()
                  | _ -> A.fail "expected * under +")
              | _ -> A.fail "expected + under <")
          | _ -> A.fail "expected < under &&")
      | _ -> A.fail "expected && under ||")
  | _ -> A.fail "expected || at top"

let test_parse_postfix_chain () =
  let e = Parser.parse_expr_string "a.b[3].c(x, y).d" in
  A.(check string) "printed" "a.b[3].c(x, y).d" (Pretty.expr_to_string e)

let test_parse_foreach_where () =
  let stmts = Parser.parse_stmts_string "foreach (q in pts where q.keep) { }" in
  match (List.hd stmts).Ast.s with
  | Ast.Sforeach { fe_where = Some _; fe_var = "q"; _ } -> ()
  | _ -> A.fail "expected foreach-where"

let test_parse_error_reports_location () =
  match Parser.parse ~file:"f" "class X {" with
  | exception Srcloc.Error (_, msg) ->
      A.(check bool) "mentions parse" true
        (Astring.String.is_infix ~affix:"expected" msg
        || String.length msg > 0)
  | _ -> A.fail "expected parse error"

let test_roundtrip_program () =
  let prog = parse_ok sum_src in
  let printed = Pretty.program_to_string prog in
  let reparsed = Parser.parse ~file:"printed" printed in
  let printed2 = Pretty.program_to_string reparsed in
  A.(check string) "pretty round-trip fixpoint" printed printed2

(* qcheck: random expression round-trips through the pretty-printer *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ast.mk_expr (Ast.Eint (abs n))) small_int;
        map (fun v -> Ast.mk_expr (Ast.Evar ("v" ^ string_of_int (abs v mod 5)))) small_int;
        return (Ast.mk_expr (Ast.Ebool true));
      ]
  in
  let node self n =
    if n <= 0 then leaf
    else
      oneof
        [
          leaf;
          map2
            (fun a b -> Ast.mk_expr (Ast.Ebinop (Ast.Add, a, b)))
            (self (n / 2)) (self (n / 2));
          map2
            (fun a b -> Ast.mk_expr (Ast.Ebinop (Ast.Mul, a, b)))
            (self (n / 2)) (self (n / 2));
          map2
            (fun a b -> Ast.mk_expr (Ast.Ebinop (Ast.Lt, a, b)))
            (self (n / 2)) (self (n / 2));
          map (fun a -> Ast.mk_expr (Ast.Eunop (Ast.Neg, a))) (self (n - 1));
          map (fun a -> Ast.mk_expr (Ast.Efield (a, "f"))) (self (n - 1));
        ]
  in
  sized (fix node)

let rec expr_equal (a : Ast.expr) (b : Ast.expr) =
  match (a.Ast.e, b.Ast.e) with
  | Ast.Eint x, Ast.Eint y -> x = y
  | Ast.Ebool x, Ast.Ebool y -> x = y
  | Ast.Evar x, Ast.Evar y -> x = y
  | Ast.Ebinop (o1, a1, b1), Ast.Ebinop (o2, a2, b2) ->
      o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Ast.Eunop (o1, a1), Ast.Eunop (o2, a2) -> o1 = o2 && expr_equal a1 a2
  | Ast.Efield (a1, f1), Ast.Efield (a2, f2) -> f1 = f2 && expr_equal a1 a2
  | _ -> false

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"pretty-print/parse round-trip on expressions"
    ~count:200
    (QCheck.make gen_expr ~print:Pretty.expr_to_string)
    (fun e ->
      let printed = Pretty.expr_to_string e in
      let reparsed = Parser.parse_expr_string printed in
      expr_equal e reparsed)

(* --- typechecker --- *)

let test_typecheck_ok () = ignore (typecheck_ok ~externs:externs_sig sum_src)

let expect_type_error ?externs src frag =
  match typecheck_ok ?externs src with
  | exception Srcloc.Error (_, msg) ->
      if not (Astring.String.is_infix ~affix:frag msg) then
        A.failf "error %S does not mention %S" msg frag
  | _ -> A.failf "expected type error mentioning %S" frag

let wrap_pipeline body =
  Printf.sprintf "pipelined (p in [0 : 2]) { %s }" body

let test_typecheck_unbound () =
  expect_type_error (wrap_pipeline "x = 1;") "unbound variable x"

let test_typecheck_bad_assign () =
  expect_type_error (wrap_pipeline "int x = 0; x = 1.5;") "cannot assign"

(* [l op= e] must fit [l], as [l = l op e] must: an [int] place cannot
   take a [float] result. *)
let test_typecheck_bad_update () =
  expect_type_error (wrap_pipeline "int x = 0; x += 1.5;") "compound update of int";
  ignore (typecheck_ok (wrap_pipeline "float x = 0.0; x += 1; int n = 0; n *= 2;"))

let test_typecheck_int_to_float_ok () =
  ignore (typecheck_ok (wrap_pipeline "float x = 3; x = x + 1;"))

let test_typecheck_if_not_bool () =
  expect_type_error (wrap_pipeline "if (1) { }") "if condition not bool"

let test_typecheck_bad_field () =
  expect_type_error
    ("class C { int a; } " ^ wrap_pipeline "C c = new C(); int z = c.b;")
    "no field b"

let test_typecheck_reduc_needs_merge () =
  expect_type_error
    ("class R implements Reducinterface { int a; } "
    ^ wrap_pipeline "int x = 0;")
    "must define 'void merge"

let test_typecheck_foreach_elem_type () =
  ignore
    (typecheck_ok
       (wrap_pipeline
          "List<float> xs = new List<float>(); foreach (x in xs) { float y = \
           x + 1.0; }"))

let test_typecheck_where_not_bool () =
  expect_type_error
    (wrap_pipeline
       "List<int> xs = new List<int>(); foreach (x in xs where x + 1) { }")
    "where clause not bool"

let test_typecheck_dup_class () =
  expect_type_error
    ("class C { int a; } class C { int b; } " ^ wrap_pipeline "int x = 0;")
    "duplicate class"

let test_typecheck_call_arity () =
  expect_type_error
    ("int f(int a, int b) { return a + b; } " ^ wrap_pipeline "int x = f(1);")
    "expects 2 argument"

let test_typecheck_method_unknown () =
  expect_type_error
    ("class C { int a; } " ^ wrap_pipeline "C c = new C(); c.run();")
    "no method run"

(* [null] is a value of every class and array type, as in Java, and of
   no other. *)
let test_typecheck_null_references () =
  ignore
    (typecheck_ok
       ("class T { float a; } T keep(T t) { return t; } T none() { return null; } "
       ^ wrap_pipeline
           "T t = null; float[] f = null; t = null; f = null; bool b = t == null; \
            b = null != f; T u = keep(null); List<T> ts = new List<T>(); \
            ts.add(null); T v = none();"))

let test_typecheck_null_not_scalar () =
  expect_type_error (wrap_pipeline "int x = null;") "cannot initialize int x with void";
  expect_type_error (wrap_pipeline "float y = 0.0; bool b = y == null;")
    "equality between incompatible types float, void";
  expect_type_error
    ("class T { int a; } " ^ wrap_pipeline "T t = new T(); t.a = null;")
    "cannot assign void to int"

let test_interp_null_references () =
  let src =
    {|
class T { float a; }
int r = 0;
T make(bool b) { if (b) { return new T(); } return null; }
pipelined (p in [0 : 1]) {
  T t = make(false);
  if (t == null) { r = r + 1; }
  T u = make(true);
  if (u != null) { r = r + 10; }
  if (u == u) { r = r + 100; }
  T v = new T();
  if (u == v) { r = r + 1000; }
  float[] f = null;
  if (f == null) { r = r + 10000; }
}
|}
  in
  let prog = typecheck_ok src in
  let genv = Interp.run_reference (Interp.create_ctx prog) in
  A.(check int) "null and identity comparisons" 10111
    (Value.as_int (Interp.global_value genv "r"))

(* --- interpreter --- *)

let run_with_externs ?(num_packets = 4) ?(per_packet = 10) src =
  let prog = parse_ok src in
  Typecheck.check ~externs:externs_sig prog;
  let ctx =
    Interp.create_ctx
      ~externs:[ read_points_extern per_packet ]
      ~runtime_defs:[ ("num_packets", num_packets) ]
      prog
  in
  (ctx, Interp.run_reference ctx)

let test_interp_reference_run () =
  let _ctx, genv = run_with_externs sum_src in
  match Interp.global_value genv "result" with
  | Value.Vobject o ->
      (* points are k/100 for k = 0..39; keep those with x^2 < 1, i.e. all
         40 (max 0.39^2 = 0.15 < 1) *)
      A.(check int) "count" 40 (Value.as_int (Value.field o "count"));
      let expected = List.init 40 (fun k -> float_of_int k /. 100.) in
      let total = List.fold_left ( +. ) 0. expected in
      A.(check (float 1e-9)) "total" total (Value.as_float (Value.field o "total"))
  | v -> A.failf "expected object, got %s" (Value.type_name v)

let test_interp_where_filters () =
  let src =
    {|
class Acc implements Reducinterface {
  int n;
  void merge(Acc other) { this.n = this.n + other.n; }
}
Acc result = new Acc();
pipelined (p in [0 : 3]) {
  Acc local = new Acc();
  foreach (i in [0 : 10] where i % 2 == 0) {
    local.n += 1;
  }
  result.merge(local);
}
|}
  in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  match Interp.global_value genv "result" with
  | Value.Vobject o -> A.(check int) "n" 15 (Value.as_int (Value.field o "n"))
  | _ -> A.fail "expected object"

let test_interp_arrays_and_for () =
  let src =
    {|
class Acc implements Reducinterface {
  int n;
  void merge(Acc other) { this.n = this.n + other.n; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  int[] a = new int[5];
  for (int i = 0; i < 5; i = i + 1) { a[i] = i * i; }
  Acc local = new Acc();
  foreach (i in [0 : 5]) { local.n += a[i]; }
  result.merge(local);
}
|}
  in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  match Interp.global_value genv "result" with
  | Value.Vobject o ->
      A.(check int) "sum of squares" 30 (Value.as_int (Value.field o "n"))
  | _ -> A.fail "expected object"

let test_interp_function_calls () =
  let src =
    {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
class Acc implements Reducinterface {
  int n;
  void merge(Acc other) { this.n = this.n + other.n; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  local.n = fib(10);
  result.merge(local);
}
|}
  in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  match Interp.global_value genv "result" with
  | Value.Vobject o -> A.(check int) "fib 10" 55 (Value.as_int (Value.field o "n"))
  | _ -> A.fail "expected object"

let test_else_if_chain () =
  let src =
    {|
class Acc implements Reducinterface {
  int n;
  void merge(Acc other) { this.n = this.n + other.n; }
}
Acc result = new Acc();
pipelined (p in [0 : 6]) {
  Acc local = new Acc();
  if (p < 2) {
    local.n = 1;
  } else if (p < 4) {
    local.n = 10;
  } else {
    local.n = 100;
  }
  result.merge(local);
}
|}
  in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  match Interp.global_value genv "result" with
  | Value.Vobject o ->
      A.(check int) "2*1 + 2*10 + 2*100" 222 (Value.as_int (Value.field o "n"))
  | _ -> A.fail "expected object"

let test_interp_break_continue () =
  let src =
    {|
class Acc implements Reducinterface {
  int n;
  void merge(Acc other) { this.n = this.n + other.n; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  int i = 0;
  while (true) {
    i = i + 1;
    if (i > 100) { break; }
    if (i % 2 == 0) { continue; }
    local.n += 1;
  }
  result.merge(local);
}
|}
  in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  match Interp.global_value genv "result" with
  | Value.Vobject o -> A.(check int) "odd count" 50 (Value.as_int (Value.field o "n"))
  | _ -> A.fail "expected object"

let test_interp_counts_ops () =
  let ctx, _ = run_with_externs sum_src in
  let c = ctx.Interp.counter in
  A.(check bool) "float ops counted" true (c.Opcount.float_ops > 0);
  A.(check bool) "branches counted" true (c.Opcount.branch_ops > 0);
  A.(check bool) "calls counted" true (c.Opcount.calls > 0)

let test_interp_division_by_zero () =
  let src = wrap_pipeline "int x = 1; int y = x / (x - x);" in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  match Interp.run_reference ctx with
  | exception Value.Runtime_error msg ->
      A.(check bool) "mentions zero" true
        (Astring.String.is_infix ~affix:"zero" msg)
  | _ -> A.fail "expected runtime error"

let test_interp_array_bounds () =
  let src = wrap_pipeline "int[] a = new int[2]; int x = a[5];" in
  let prog = typecheck_ok src in
  let ctx = Interp.create_ctx prog in
  match Interp.run_reference ctx with
  | exception Value.Runtime_error msg ->
      A.(check bool) "mentions bounds" true
        (Astring.String.is_infix ~affix:"bounds" msg)
  | _ -> A.fail "expected runtime error"

let test_value_deep_copy_isolates () =
  let cd =
    { Ast.cd_name = "C"; cd_reduc = false; cd_fields = [ (Ast.Tint, "x") ];
      cd_methods = []; cd_loc = Srcloc.dummy }
  in
  let o = Value.make_object cd in
  Value.set_field o "x" (Value.Vint 1);
  let obj = Value.Vobject o in
  let copy = Value.deep_copy obj in
  (match obj with
  | Value.Vobject o -> Value.set_field o "x" (Value.Vint 99)
  | _ -> ());
  match copy with
  | Value.Vobject o -> A.(check int) "copy unaffected" 1 (Value.as_int (Value.field o "x"))
  | _ -> A.fail "expected object"

let prop_vec_push_get =
  QCheck.Test.make ~name:"Vec push/get agree with list semantics" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Value.Vec.create () in
      List.iter (fun x -> Value.Vec.push v x) xs;
      Value.Vec.to_list v = xs
      && Value.Vec.length v = List.length xs
      && List.for_all2 ( = ) (List.mapi (fun i _ -> Value.Vec.get v i) xs) xs)

(* Lengths on both sides of a chunk (256) and of a young spine (256
   chunks). *)
let test_vec_chunk_edges () =
  List.iter
    (fun n ->
      let v = Value.Vec.create () in
      for i = 0 to n - 1 do
        Value.Vec.push v i
      done;
      let w = Value.Vec.init n Fun.id in
      let what = Printf.sprintf "n = %d" n in
      A.(check int) (what ^ ": length") n (Value.Vec.length v);
      A.(check (list int)) (what ^ ": init = push") (Value.Vec.to_list v)
        (Value.Vec.to_list w);
      let sum = ref 0 in
      Value.Vec.iter (fun x -> sum := !sum + x) v;
      A.(check int) (what ^ ": iter") (n * (n - 1) / 2) !sum;
      if n > 0 then begin
        Value.Vec.set w (n - 1) (-1);
        A.(check int) (what ^ ": set") (-1) (Value.Vec.get w (n - 1));
        Value.Vec.push w 7;
        A.(check int) (what ^ ": push after init") 7 (Value.Vec.get w n)
      end;
      Value.Vec.clear v;
      Value.Vec.push v 42;
      A.(check (list int)) (what ^ ": clear") [ 42 ] (Value.Vec.to_list v))
    [ 0; 1; 8; 9; 255; 256; 257; 1000; 65_536; 65_537; 70_000 ]

(* A flat [float[]] is one value with the boxed form it stands for. *)
let test_flat_float_array () =
  let flat = Value.Vfloats [| 1.5; -0.0; 3.0 |] in
  let boxed = Value.Varray [| Value.Vfloat 1.5; Value.Vfloat (-0.0); Value.Vfloat 3.0 |] in
  A.(check bool) "flat = boxed" true (Value.equal flat boxed);
  A.(check bool) "boxed = flat" true (Value.equal boxed flat);
  A.(check bool) "lengths differ" false
    (Value.equal flat (Value.Varray [| Value.Vfloat 1.5 |]));
  A.(check string) "printed alike" (Value.to_string boxed) (Value.to_string flat);
  A.(check (array (float 0.0))) "as_floats" [| 1.5; -0.0; 3.0 |] (Value.as_floats boxed);
  let copy = Value.deep_copy flat in
  (match flat with Value.Vfloats a -> a.(0) <- 9.0 | _ -> ());
  A.(check bool) "deep copy isolates" true (Value.equal copy boxed);
  A.(check bool) "new float[2]" true
    (Value.equal (Value.make_array Ast.Tfloat 2) (Value.Vfloats [| 0.0; 0.0 |]))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_expr_roundtrip; prop_vec_push_get ]

let suite : unit Alcotest.test_case list =
  [
    ("lex simple", `Quick, test_lex_simple);
    ("lex comments", `Quick, test_lex_comments);
    ("lex numbers", `Quick, test_lex_numbers);
    ("lex operators", `Quick, test_lex_operators);
    ("lex string escapes", `Quick, test_lex_string_escapes);
    ("lex error location", `Quick, test_lex_error_loc);
    ("parse program", `Quick, test_parse_program);
    ("parse precedence", `Quick, test_parse_precedence);
    ("parse postfix chain", `Quick, test_parse_postfix_chain);
    ("parse foreach where", `Quick, test_parse_foreach_where);
    ("parse error location", `Quick, test_parse_error_reports_location);
    ("pretty round-trip", `Quick, test_roundtrip_program);
    ("typecheck ok", `Quick, test_typecheck_ok);
    ("typecheck unbound", `Quick, test_typecheck_unbound);
    ("typecheck bad assign", `Quick, test_typecheck_bad_assign);
    ("typecheck int->float ok", `Quick, test_typecheck_int_to_float_ok);
    ("typecheck bad compound update", `Quick, test_typecheck_bad_update);
    ("typecheck if not bool", `Quick, test_typecheck_if_not_bool);
    ("typecheck bad field", `Quick, test_typecheck_bad_field);
    ("typecheck reduc needs merge", `Quick, test_typecheck_reduc_needs_merge);
    ("typecheck foreach elem", `Quick, test_typecheck_foreach_elem_type);
    ("typecheck where not bool", `Quick, test_typecheck_where_not_bool);
    ("typecheck dup class", `Quick, test_typecheck_dup_class);
    ("typecheck call arity", `Quick, test_typecheck_call_arity);
    ("typecheck unknown method", `Quick, test_typecheck_method_unknown);
    ("typecheck null for references", `Quick, test_typecheck_null_references);
    ("typecheck null not for scalars", `Quick, test_typecheck_null_not_scalar);
    ("interp null references", `Quick, test_interp_null_references);
    ("interp reference run", `Quick, test_interp_reference_run);
    ("interp where filters", `Quick, test_interp_where_filters);
    ("interp arrays and for", `Quick, test_interp_arrays_and_for);
    ("interp function calls", `Quick, test_interp_function_calls);
    ("else-if chain", `Quick, test_else_if_chain);
    ("interp break/continue", `Quick, test_interp_break_continue);
    ("interp counts ops", `Quick, test_interp_counts_ops);
    ("interp division by zero", `Quick, test_interp_division_by_zero);
    ("interp array bounds", `Quick, test_interp_array_bounds);
    ("value deep copy isolates", `Quick, test_value_deep_copy_isolates);
    ("Vec chunk edges", `Quick, test_vec_chunk_edges);
    ("flat float[] equals its boxed form", `Quick, test_flat_float_array);
  ]
  @ qsuite

let () = Alcotest.run "lang" [ ("front-end", suite) ]
