(* No forced minor collections on the per-item path.  OCaml 5.1's
   [caml_make_vect] runs a minor collection whenever an array above 256
   words is created with a young fill value, and under domains every
   minor collection stops every domain.  Each case empties the minor
   heap, then runs one per-item operation that allocates far less than a
   minor heap: the collection count must not move.

   The object pins count the words compiled PipeLang allocates for a
   field read and for [new]: objects are fixed-layout records, so a
   read allocates nothing and an object is its record, its slot array
   and its [Vobject] box. *)

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
        Packing.unpack_value_generic (Wirefmt.reader_of data) prog ty)
  in
  A.(check bool) "round trip" true (V.equal arr back)

(* A layout's array section, unpacked element by element into an array
   of [lo + len] slots. *)
let test_layout_array_unpack () =
  let arr = V.Varray (Array.init n (fun i -> V.Vfloat (float_of_int i))) in
  let layout = [ Packing.Earray ("a", Section.Whole, Ast.Tfloat) ] in
  let data = Packing.pack prog layout ~lookup:(fun _ -> arr) in
  let back =
    no_minor_collection "layout float[] unpack" (fun () -> Packing.unpack prog layout data)
  in
  match back with
  | [ ("a", v) ] -> A.(check bool) "round trip" true (V.equal arr v)
  | _ -> A.fail "expected exactly the array a"

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
              g_fields = [ { Packing.fs_name = "a"; fs_ty = Ast.Tfloat } ];
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

(* Segment 0 sets up [t], segment 1 is the statement under test; it
   runs once so that its field sites have resolved. *)
let object_code src =
  let prog = Parser.parse src in
  let ctx = Interp.create_ctx prog in
  let body = List.rev prog.Ast.pipeline.Ast.pd_body in
  let pk =
    Interp.compile_packet ctx (Interp.init_globals ctx) ~inputs:[]
      [ List.rev (List.tl body); [ List.hd body ] ]
  in
  let fr = Interp.new_frame pk ~packet:0 in
  Interp.run_segment pk 0 fr;
  Interp.run_segment pk 1 fr;
  (pk, fr)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_field_read_allocates_nothing () =
  let pk, fr =
    object_code
      {|
class T { float a; float b; }
pipelined (p in [0 : 1]) {
  T t = new T();
  float x = 1.0;
  x = t.b;
}
|}
  in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 10_000 do
          Interp.run_segment pk 1 fr
        done)
  in
  A.(check (float 0.0)) "minor words of 10,000 field reads" 0.0 words

let test_new_object_words () =
  let pk, fr =
    object_code
      {|
class Tri {
  float x0; float y0; float z0;
  float x1; float y1; float z1;
  float x2; float y2; float z2;
  float shade;
}
pipelined (p in [0 : 1]) {
  Tri t = null;
  t = new Tri();
}
|}
  in
  let n = 1000 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to n do
          Interp.run_segment pk 1 fr
        done)
  in
  (* the record (header, class, slots), the 10 slots with their header,
     and the two-word Vobject box *)
  let bound = 3 + 11 + 2 in
  if words > float_of_int (bound * n) then
    A.failf "new Tri() allocates %.1f words, more than %d" (words /. float_of_int n)
      bound

let () =
  Alcotest.run "gc_alloc"
    [
      ( "no forced minor collection",
        [
          ("Vec.push of fresh values", `Quick, test_vec_push);
          ("generic float[] unpack", `Quick, test_generic_array_unpack);
          ("layout float[] unpack", `Quick, test_layout_array_unpack);
          ("collection of objects unpack", `Quick, test_collection_unpack);
        ] );
      ( "object allocation",
        [
          ("field read allocates nothing", `Quick, test_field_read_allocates_nothing);
          ("new object is its record and slots", `Quick, test_new_object_words);
        ] );
    ]
