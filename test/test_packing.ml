(* Tests for buffer packing (§5): layout selection (instance-wise vs
   field-wise), byte-level round trips, size accounting, and the
   forwarding cost discount for contiguous columns. *)

module A = Alcotest
open Core
open Lang
module V = Value

(* A three-filter program in which collection [ts] has one field consumed
   by the middle filter (a) and one consumed only by the last (b): the
   §5 example shapes. *)
let src =
  {|
class T { float a; float b; int tag; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
R acc = new R();
pipelined (p in [0 : 2]) {
  List<T> ts = read_ts(p);
  R mid = new R();
  foreach (t in ts) {
    mid.x += t.a;
  }
  R fin = new R();
  foreach (t in ts) {
    fin.x += t.b + float_of_int(t.tag);
  }
  acc.merge(mid);
  acc.merge(fin);
}
|}

let setup () =
  let rc = Reqcomm.analyze (Parser.parse src) in
  let prog = rc.Reqcomm.prog in
  (prog, rc, Tyenv.of_segments prog (Reqcomm.segments rc))

(* boundary entering segment 1 (after the read), with each segment its
   own filter *)
let layout_b1 ?(filter_of_seg = fun s -> s) () =
  let prog, rc, tyenv = setup () in
  (prog, Packing.layout_for_cut tyenv rc ~cut:1 ~filter_of_seg)

let find_coll layout c =
  List.find_map
    (function
      | Packing.Ecoll (c', _, groups) when c' = c -> Some groups
      | _ -> None)
    layout

let test_groups_by_first_consumer () =
  let _, layout = layout_b1 () in
  match find_coll layout "ts" with
  | None -> A.fail "no collection entry for ts"
  | Some groups ->
      A.(check int) "two groups" 2 (List.length groups);
      let g1 = List.nth groups 0 and g2 = List.nth groups 1 in
      (* fields consumed by the receiving filter (segment 1: mid.x += t.a)
         come first and are instance-wise *)
      A.(check bool) "first group instance-wise" true (g1.Packing.g_layout = `Instance);
      A.(check (list string)) "first group fields" [ "a" ]
        (List.map (fun f -> f.Packing.fs_name) g1.Packing.g_fields);
      A.(check bool) "second group field-wise" true (g2.Packing.g_layout = `Fieldwise);
      A.(check (list string)) "second group fields" [ "b"; "tag" ]
        (List.map (fun f -> f.Packing.fs_name) g2.Packing.g_fields)

let test_same_filter_merges_groups () =
  (* if both downstream foreach segments live in the same filter, all
     fields are first consumed there: one instance-wise group *)
  let _, layout = layout_b1 ~filter_of_seg:(fun _ -> 1) () in
  match find_coll layout "ts" with
  | None -> A.fail "no collection entry"
  | Some groups ->
      A.(check int) "one group" 1 (List.length groups);
      A.(check bool) "instance-wise" true
        ((List.hd groups).Packing.g_layout = `Instance)

(* --- byte round trips --- *)

let mk_t prog a b tag =
  let cd = Option.get (Ast.find_class prog "T") in
  let o = V.make_object cd in
  V.set_field o "a" (V.Vfloat a);
  V.set_field o "b" (V.Vfloat b);
  V.set_field o "tag" (V.Vint tag);
  V.Vobject o

let env_with_ts prog n =
  let vec = V.Vec.create () in
  for i = 0 to n - 1 do
    V.Vec.push vec (mk_t prog (float_of_int i) (float_of_int (i * 2)) i)
  done;
  fun name ->
    if name = "ts" then V.Vlist vec
    else V.runtime_errorf "unexpected lookup %s" name

let test_roundtrip_collection () =
  let prog, layout = layout_b1 () in
  let lookup = env_with_ts prog 5 in
  let bytes = Packing.pack prog layout ~lookup in
  let out = Packing.unpack prog layout bytes in
  match List.assoc "ts" out with
  | V.Vlist l ->
      A.(check int) "count" 5 (V.Vec.length l);
      for i = 0 to 4 do
        let o = V.as_object (V.Vec.get l i) in
        A.(check (float 1e-12)) "a" (float_of_int i) (V.as_float (V.field o "a"));
        A.(check (float 1e-12)) "b" (float_of_int (i * 2)) (V.as_float (V.field o "b"));
        A.(check int) "tag" i (V.as_int (V.field o "tag"))
      done
  | _ -> A.fail "expected list"

let test_packed_size_matches_pack () =
  let prog, layout = layout_b1 () in
  let lookup = env_with_ts prog 7 in
  let bytes = Packing.pack prog layout ~lookup in
  A.(check int) "size agrees" (Bytes.length bytes)
    (Packing.packed_size prog layout ~lookup)

let test_empty_collection () =
  let prog, layout = layout_b1 () in
  let lookup = env_with_ts prog 0 in
  let bytes = Packing.pack prog layout ~lookup in
  let out = Packing.unpack prog layout bytes in
  match List.assoc "ts" out with
  | V.Vlist l -> A.(check int) "empty" 0 (V.Vec.length l)
  | _ -> A.fail "expected list"

let test_scalar_entries_roundtrip () =
  let prog, _, _ = setup () in
  let layout =
    [
      Packing.Escalar ("n", Ast.Tint);
      Packing.Escalar ("f", Ast.Tfloat);
      Packing.Escalar ("ok", Ast.Tbool);
      Packing.Escalar ("s", Ast.Tstring);
      Packing.Escalar ("r", Ast.Trectdomain);
    ]
  in
  let lookup = function
    | "n" -> V.Vint (-42)
    | "f" -> V.Vfloat 3.25
    | "ok" -> V.Vbool true
    | "s" -> V.Vstring "hello\nworld"
    | "r" -> V.Vrange (3, 17)
    | x -> V.runtime_errorf "unexpected %s" x
  in
  let out = Packing.unpack prog layout (Packing.pack prog layout ~lookup) in
  A.(check bool) "int" true (V.equal (List.assoc "n" out) (V.Vint (-42)));
  A.(check bool) "float" true (V.equal (List.assoc "f" out) (V.Vfloat 3.25));
  A.(check bool) "bool" true (V.equal (List.assoc "ok" out) (V.Vbool true));
  A.(check bool) "string" true (V.equal (List.assoc "s" out) (V.Vstring "hello\nworld"));
  A.(check bool) "range" true (V.equal (List.assoc "r" out) (V.Vrange (3, 17)))

let test_array_section_roundtrip () =
  let prog, _, _ = setup () in
  let sec = Section.Range (Section.Bconst 2, Section.Bconst 6) in
  let layout = [ Packing.Earray ("a", sec, Ast.Tfloat) ] in
  let arr = V.Varray (Array.init 10 (fun i -> V.Vfloat (float_of_int i))) in
  let lookup = function
    | "a" -> arr
    | x -> V.runtime_errorf "unexpected %s" x
  in
  let out = Packing.unpack prog layout (Packing.pack prog layout ~lookup) in
  match List.assoc "a" out with
  | V.Vfloats a ->
      A.(check int) "length lo+len" 6 (Array.length a);
      A.(check (float 1e-12)) "a[2]" 2.0 a.(2);
      A.(check (float 1e-12)) "a[5]" 5.0 a.(5)
  | _ -> A.fail "expected a flat float array"

let test_symbolic_section_resolved () =
  let prog, _, _ = setup () in
  let sec = Section.Range (Section.Bconst 0, Section.Bsym "n") in
  let layout = [ Packing.Escalar ("n", Ast.Tint); Packing.Earray ("a", sec, Ast.Tint) ] in
  let arr = V.Varray (Array.init 10 (fun i -> V.Vint i)) in
  let lookup = function
    | "a" -> arr
    | "n" -> V.Vint 4
    | x -> V.runtime_errorf "unexpected %s" x
  in
  let bytes = Packing.pack prog layout ~lookup in
  (* 8 (n) + 16 (lo,len) + 4*8 *)
  A.(check int) "only 4 elements packed" (8 + 16 + 32) (Bytes.length bytes)

let test_obj_any_array_field () =
  let prog = Parser.parse "class Z { float[] depth; } pipelined (p in [0 : 1]) { }" in
  let layout = [ Packing.Eobj_field ("z", "Z", "depth", Ast.Tarray Ast.Tfloat) ] in
  let o = V.make_object (Option.get (Ast.find_class prog "Z")) in
  V.set_field o "depth" (V.Varray [| V.Vfloat 1.5; V.Vfloat 2.5 |]);
  let lookup = function
    | "z" -> V.Vobject o
    | x -> V.runtime_errorf "unexpected %s" x
  in
  let out = Packing.unpack prog layout (Packing.pack prog layout ~lookup) in
  match List.assoc "z" out with
  | V.Vobject o' -> (
      match V.field o' "depth" with
      | V.Vfloats a -> A.(check (float 1e-12)) "elt" 2.5 a.(1)
      | _ -> A.fail "expected a flat float array field")
  | _ -> A.fail "expected object"

let test_generic_value_roundtrip_nested () =
  let prog, _, _ = setup () in
  (* List<T> via the generic codec *)
  let ty = Ast.Tlist (Ast.Tclass "T") in
  let vec = V.Vec.create () in
  V.Vec.push vec (mk_t prog 1.0 2.0 3);
  V.Vec.push vec (mk_t prog 4.0 5.0 6);
  let v = V.Vlist vec in
  let buf = Buffer.create 64 in
  Packing.pack_value_generic buf prog ty v;
  let r = Wirefmt.reader_of (Buffer.to_bytes buf) in
  let v' = Packing.unpack_value_generic r prog ty in
  A.(check bool) "roundtrip" true (V.equal v v');
  A.(check int) "size accounting" (Buffer.length buf)
    (Packing.value_size_generic prog ty v)

let test_marshal_ops_forwarding_discount () =
  let prog, layout = layout_b1 () in
  let lookup = env_with_ts prog 100 in
  (* receiving filter consumes only "a": the b/tag column is forwarded *)
  let consumed_mid c f = c = "ts" && f = "a" in
  let ops_mid = Packing.marshal_ops prog layout ~lookup ~consumed_here:consumed_mid in
  (* a filter consuming everything pays full gather cost *)
  let ops_all = Packing.marshal_ops prog layout ~lookup ~consumed_here:(fun _ _ -> true) in
  A.(check bool) "forwarded column cheaper" true (ops_mid < ops_all)

let test_instance_vs_fieldwise_same_bytes () =
  (* the two layouts must serialize the same volume *)
  let prog, l1 = layout_b1 () in
  let _, l2 = layout_b1 ~filter_of_seg:(fun _ -> 1) () in
  let lookup = env_with_ts prog 13 in
  A.(check int) "same size"
    (Packing.packed_size prog l1 ~lookup)
    (Packing.packed_size prog l2 ~lookup)

(* qcheck: random collections round-trip through both layouts *)
let prop_roundtrip_random =
  QCheck.Test.make ~name:"random collections round-trip" ~count:100
    QCheck.(list (triple (float_bound_exclusive 1000.0) (float_bound_exclusive 1000.0) small_int))
    (fun rows ->
      let prog, layout = layout_b1 () in
      let vec = V.Vec.create () in
      List.iter (fun (a, b, t) -> V.Vec.push vec (mk_t prog a b t)) rows;
      let lookup = function
        | "ts" -> V.Vlist vec
        | x -> V.runtime_errorf "unexpected %s" x
      in
      let out = Packing.unpack prog layout (Packing.pack prog layout ~lookup) in
      match List.assoc "ts" out with
      | V.Vlist l ->
          V.Vec.length l = List.length rows
          && List.for_all2
               (fun (a, b, t) elt ->
                 let o = V.as_object elt in
                 V.as_float (V.field o "a") = a
                 && V.as_float (V.field o "b") = b
                 && V.as_int (V.field o "tag") = t)
               rows (V.Vec.to_list l)
      | _ -> false)

(* objpack: reduction-state payload round trip *)
let test_objpack_globals_roundtrip () =
  let prog, _, _ = setup () in
  let cd = Option.get (Ast.find_class prog "R") in
  let o = V.make_object cd in
  V.set_field o "x" (V.Vfloat 9.75);
  let globals = [ ("acc", Ast.Tclass "R", V.Vobject o) ] in
  let bytes = Objpack.pack_globals prog globals in
  let out = Objpack.unpack_globals prog [ ("acc", Ast.Tclass "R") ] bytes in
  match List.assoc "acc" out with
  | V.Vobject o' -> A.(check (float 1e-12)) "x" 9.75 (V.as_float (V.field o' "x"))
  | _ -> A.fail "expected object"

let test_objpack_null_and_arrays () =
  let prog, _, _ = setup () in
  let globals =
    [
      ("a", Ast.Tarray Ast.Tint, V.Varray [| V.Vint 1; V.Vint 2 |]);
      ("n", Ast.Tclass "R", V.Vnull);
    ]
  in
  let bytes = Objpack.pack_globals prog globals in
  let out =
    Objpack.unpack_globals prog
      [ ("a", Ast.Tarray Ast.Tint); ("n", Ast.Tclass "R") ]
      bytes
  in
  A.(check bool) "array" true
    (V.equal (List.assoc "a" out) (V.Varray [| V.Vint 1; V.Vint 2 |]));
  A.(check bool) "null" true (V.equal (List.assoc "n" out) V.Vnull)

(* A layout naming a class the program does not declare is rejected when
   unpacking, for a single object and for a collection's elements. *)
let test_unpack_unknown_class () =
  let prog, _, _ = setup () in
  let t = mk_t prog 1.0 2.0 3 in
  let lookup = function
    | "t0" -> t
    | "ts" -> V.Vlist (V.Vec.of_list [ t ])
    | x -> V.runtime_errorf "unexpected %s" x
  in
  let group =
    { Packing.g_layout = `Instance;
      g_fields = [ { Packing.fs_name = "a"; fs_ty = Ast.Tfloat } ];
      g_first_consumer = None }
  in
  List.iter
    (fun entry ->
      let data = Packing.pack prog [ entry ] ~lookup in
      match Packing.unpack prog [ entry ] data with
      | exception V.Runtime_error msg ->
          A.(check string) "error" "unpack: unknown class Missing" msg
      | _ -> A.fail "unpacked objects of an undeclared class")
    [ Packing.Eobj_field ("t0", "Missing", "a", Ast.Tfloat);
      Packing.Ecoll ("ts", Some "Missing", [ group ]) ]

let suite =
  [
    ("groups by first consumer", `Quick, test_groups_by_first_consumer);
    ("same filter merges groups", `Quick, test_same_filter_merges_groups);
    ("roundtrip collection", `Quick, test_roundtrip_collection);
    ("packed_size matches pack", `Quick, test_packed_size_matches_pack);
    ("empty collection", `Quick, test_empty_collection);
    ("scalar entries roundtrip", `Quick, test_scalar_entries_roundtrip);
    ("array section roundtrip", `Quick, test_array_section_roundtrip);
    ("symbolic section resolved", `Quick, test_symbolic_section_resolved);
    ("object array field", `Quick, test_obj_any_array_field);
    ("unpack unknown class", `Quick, test_unpack_unknown_class);
    ("generic nested roundtrip", `Quick, test_generic_value_roundtrip_nested);
    ("forwarding discount", `Quick, test_marshal_ops_forwarding_discount);
    ("layouts same volume", `Quick, test_instance_vs_fieldwise_same_bytes);
    ("objpack globals roundtrip", `Quick, test_objpack_globals_roundtrip);
    ("objpack null and arrays", `Quick, test_objpack_null_and_arrays);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random ]

let () = Alcotest.run "packing" [ ("packing", suite) ]
