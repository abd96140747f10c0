(* Tests for the may/must alias treatment of the Gen/Cons analysis
   (Figure 2 relies on must-alias info for Gen and may-alias for Cons). *)

module A = Alcotest
open Core
open Lang

(* --- the Alias module itself --- *)

let is_ref v = List.mem v [ "p"; "q"; "r"; "xs"; "ys" ]

let aliases_of src =
  Alias.of_stmts ~is_ref (Parser.parse_stmts_string src)

let test_direct_assignment_aliases () =
  let a = aliases_of "q = p;" in
  A.(check bool) "q ~ p" true (Alias.may_alias a "q" "p");
  A.(check bool) "p not unaliased" false (Alias.unaliased a "p");
  A.(check bool) "q not unaliased" false (Alias.unaliased a "q");
  A.(check bool) "r unaffected" true (Alias.unaliased a "r")

let test_decl_from_var_aliases () =
  let a = aliases_of "int v = 3; q = p;" in
  A.(check bool) "q ~ p" true (Alias.may_alias a "q" "p");
  A.(check bool) "scalar copy no alias" true (Alias.unaliased a "r")

let test_transitive () =
  let a = aliases_of "q = p; r = q;" in
  A.(check bool) "r ~ p transitively" true (Alias.may_alias a "r" "p")

let test_escape_via_field_store () =
  let a = aliases_of "q.next = p;" in
  A.(check bool) "p escaped" false (Alias.unaliased a "p");
  (* two escaped references conservatively alias *)
  let a2 = aliases_of "q.next = p; ys.add(r);" in
  A.(check bool) "escaped pair may alias" true (Alias.may_alias a2 "p" "r")

let test_escape_via_list_add () =
  let a = aliases_of "xs.add(p);" in
  A.(check bool) "p escaped" false (Alias.unaliased a "p");
  (* the escape mark moves with p's class when a later assignment unions
     it, so the statement order does not matter *)
  let a2 = aliases_of "xs.add(p); ys.add(r); p = q;" in
  A.(check bool) "escape survives a later union" true (Alias.may_alias a2 "p" "r")

let test_self_identity () =
  let a = aliases_of "int v = 1;" in
  A.(check bool) "always may-alias self" true (Alias.may_alias a "p" "p")

let test_conditional_assignment_counts () =
  (* flow-insensitive: even an assignment under a conditional aliases *)
  let a = aliases_of "if (b) { q = p; }" in
  A.(check bool) "q ~ p" true (Alias.may_alias a "q" "p")

(* --- effect on Gen/Cons --- *)

let analyze ?(decls = "") body =
  let src =
    Printf.sprintf
      {|
class T { float a; float b; }
%s
pipelined (p in [0 : 2]) { %s }
|}
      decls body
  in
  let prog = Parser.parse src in
  let ctx = Gencons.create_ctx prog prog.Ast.pipeline.Ast.pd_body in
  Gencons.analyze_segment ctx prog.Ast.pipeline.Ast.pd_body

let f c fl = Varset.ElemField (c, fl)

let test_write_through_alias_not_gen () =
  let gen, _ =
    analyze "T t1 = new T(); T t2 = t1; t2.a = 1.0;"
  in
  (* the decl of t2 copies a reference; the write through t2 cannot be a
     must-definition of t2's fields *)
  A.(check bool) "t2.a not must-gen" false (Varset.mem (f "t2" "a") gen)

let test_write_unaliased_is_gen () =
  let gen, _ = analyze "T t1 = new T(); t1.a = 1.0;" in
  A.(check bool) "t1.a gen" true (Varset.mem (f "t1" "a") gen)

let test_decl_still_gen_despite_escape () =
  (* a fresh zero-initialized object is must-defined by its declaration
     even when the reference later escapes into a collection *)
  let gen, _ =
    analyze
      "List<T> ts = new List<T>(); T t1 = new T(); t1.a = 2.0; ts.add(t1);"
  in
  A.(check bool) "decl gen survives" true (Varset.mem (f "t1" "a") gen)

let test_escaped_outer_write_demoted () =
  (* writing through an escaped reference to a pre-existing object is not
     a must-definition *)
  let gen, _ =
    analyze ~decls:"T g = new T();"
      "List<T> ts = new List<T>(); ts.add(g); g.b = 3.0;"
  in
  A.(check bool) "post-escape write demoted" false (Varset.mem (f "g" "b") gen)

let test_aliased_add_demoted () =
  let gen, _ =
    analyze
      "List<T> xs = new List<T>(); List<T> ys = xs; T t1 = new T(); \
       ys.add(t1);"
  in
  (* adding through an aliased collection name cannot must-define it *)
  A.(check bool) "no structure gen through alias" false
    (Varset.mem (Varset.Coll "ys") gen)

(* --- compile-time boundary check --- *)

let test_compile_rejects_aliases_across_boundary () =
  let src =
    {|
class T { float a; float b; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
float touch(T t) { return t.a; }
R acc = new R();
pipelined (p in [0 : 2]) {
  List<T> ts = read_ts(p);
  List<T> us = ts;
  R local = new R();
  foreach (t in ts) {
    local.x += t.a;
  }
  foreach (t in us) {
    local.x += t.b;
  }
  acc.merge(local);
}
|}
  in
  let externs_sig =
    [
      Typecheck.
        {
          ex_name = "read_ts";
          ex_params = [ Ast.Tint ];
          ex_ret = Ast.Tlist (Ast.Tclass "T");
        };
    ]
  in
  let read_ts : string * Interp.extern_fn =
    ("read_ts", fun _ _ -> Value.Vlist (Value.Vec.create ()))
  in
  let pipeline = Costmodel.uniform ~m:3 ~power:1e6 ~bandwidth:1e6 () in
  match
    Compile.compile ~source:src ~externs_sig ~externs:[ read_ts ] ~pipeline
      ~num_packets:2 ~source_externs:[ "read_ts" ] ()
  with
  | exception Srcloc.Error (_, msg) ->
      A.(check string) "message"
        "references us and ts may alias and would cross the candidate \
         boundary b1; aliased references cannot be communicated by value"
        msg
  | _ -> A.fail "expected an aliasing rejection"

let test_compile_accepts_unaliased () =
  (* the same program without the aliasing declaration compiles *)
  let src =
    {|
class T { float a; float b; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
R acc = new R();
pipelined (p in [0 : 2]) {
  List<T> ts = read_ts(p);
  R local = new R();
  foreach (t in ts) {
    local.x += t.a + t.b;
  }
  acc.merge(local);
}
|}
  in
  let externs_sig =
    [
      Typecheck.
        {
          ex_name = "read_ts";
          ex_params = [ Ast.Tint ];
          ex_ret = Ast.Tlist (Ast.Tclass "T");
        };
    ]
  in
  let read_ts : string * Interp.extern_fn =
    ("read_ts", fun _ _ -> Value.Vlist (Value.Vec.create ()))
  in
  let pipeline = Costmodel.uniform ~m:3 ~power:1e6 ~bandwidth:1e6 () in
  let c =
    Compile.compile ~source:src ~externs_sig ~externs:[ read_ts ] ~pipeline
      ~num_packets:2 ~source_externs:[ "read_ts" ] ()
  in
  A.(check bool) "compiled" true (Reqcomm.segment_count c.Compile.rc > 0)

let suite =
  [
    ("direct assignment aliases", `Quick, test_direct_assignment_aliases);
    ("decl from var aliases", `Quick, test_decl_from_var_aliases);
    ("transitive", `Quick, test_transitive);
    ("escape via field store", `Quick, test_escape_via_field_store);
    ("escape via list add", `Quick, test_escape_via_list_add);
    ("self identity", `Quick, test_self_identity);
    ("conditional assignment counts", `Quick, test_conditional_assignment_counts);
    ("write through alias not gen", `Quick, test_write_through_alias_not_gen);
    ("write unaliased is gen", `Quick, test_write_unaliased_is_gen);
    ("decl gen despite escape", `Quick, test_decl_still_gen_despite_escape);
    ("escaped outer write demoted", `Quick, test_escaped_outer_write_demoted);
    ("aliased add demoted", `Quick, test_aliased_add_demoted);
    ("compile rejects cross-boundary alias", `Quick, test_compile_rejects_aliases_across_boundary);
    ("compile accepts unaliased", `Quick, test_compile_accepts_unaliased);
  ]

let () = Alcotest.run "alias" [ ("alias", suite) ]
