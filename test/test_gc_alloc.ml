(* No forced minor collections on the per-item path.  OCaml 5.1's
   [caml_make_vect] runs a minor collection whenever an array above 256
   words is created with a young fill value, and under domains every
   minor collection stops every domain.  Each case empties the minor
   heap, then runs one per-item operation that allocates far less than a
   minor heap: the collection count must not move. *)

module A = Alcotest
open Core
open Lang
module V = Value

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let no_minor_collection name f =
  Gc.full_major ();
  let before = minor_collections () in
  let r = Sys.opaque_identity (f ()) in
  let after = minor_collections () in
  A.(check int) (name ^ ": minor collections") 0 (after - before);
  r

let prog =
  Parser.parse
    {|
class T { float a; float b; }
pipelined (p in [0 : 1]) {
  T t = new T();
}
|}

let n = 600

let test_vec_push () =
  let v =
    no_minor_collection "Vec.push" (fun () ->
        let v = V.Vec.create () in
        for i = 1 to 1000 do
          V.Vec.push v (V.Vfloat (float_of_int i))
        done;
        v)
  in
  A.(check int) "length" 1000 (V.Vec.length v);
  A.(check bool) "last element" true (V.equal (V.Vec.get v 999) (V.Vfloat 1000.0))

let test_generic_array_unpack () =
  let ty = Ast.Tarray Ast.Tfloat in
  let arr = V.Varray (Array.init n (fun i -> V.Vfloat (float_of_int i))) in
  let buf = Buffer.create (8 * (n + 1)) in
  Packing.pack_value_generic buf prog ty arr;
  let data = Buffer.to_bytes buf in
  let back =
    no_minor_collection "generic float[] unpack" (fun () ->
        Packing.unpack_value_generic (Packing.reader_of data) prog ty)
  in
  A.(check bool) "round trip" true (V.equal arr back)

let test_collection_unpack () =
  let cls = Option.get (Ast.find_class prog "T") in
  let elt i =
    let o = V.make_object cls in
    V.set_field o "a" (V.Vfloat (float_of_int i));
    V.Vobject o
  in
  let ts = V.Vlist (V.Vec.of_list (List.init n elt)) in
  let layout =
    [
      Packing.Ecoll
        ( "ts",
          Some "T",
          [
            {
              Packing.g_layout = `Instance;
              g_fields = [ { Packing.fs_name = "a"; fs_ty = Packing.Sfloat } ];
              g_first_consumer = None;
            };
          ] );
    ]
  in
  let data = Packing.pack prog layout ~lookup:(fun _ -> ts) in
  let back =
    no_minor_collection "collection unpack" (fun () -> Packing.unpack prog layout data)
  in
  match back with
  | [ ("ts", v) ] -> A.(check bool) "round trip" true (V.equal ts v)
  | _ -> A.fail "expected exactly the collection ts"

let () =
  Alcotest.run "gc_alloc"
    [
      ( "no forced minor collection",
        [
          ("Vec.push of fresh values", `Quick, test_vec_push);
          ("generic float[] unpack", `Quick, test_generic_array_unpack);
          ("collection of objects unpack", `Quick, test_collection_unpack);
        ] );
    ]
