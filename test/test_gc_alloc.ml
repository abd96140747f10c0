(* No forced minor collections on the per-item path.  OCaml 5.1's
   [caml_make_vect] runs a minor collection whenever an array above 256
   words is created with a young fill value, and under domains every
   minor collection stops every domain.  Each case empties the minor
   heap, then runs one per-item operation that allocates far less than a
   minor heap: the collection count must not move.

   A value built on the per-item path and dropped must not be promoted
   either: an array born in the major heap (above 256 words) that gets
   young values stored into it keeps them alive through the next minor
   collection, and under domains that copying stops every domain too.

   The object pins count the words compiled PipeLang allocates for a
   field read and for [new]: objects are fixed-layout records with their
   [float] fields in a flat array, so a read or a store of a [float]
   field allocates nothing and an all-[float] object is its record, its
   float array and its [Vobject] box. *)

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

(* [f] builds a value that is then dropped: the next minor collection
   must promote nothing.  [f] runs once before, so that what its first
   run caches (field sites, the yield counter) is old already. *)
let promoted_words () = int_of_float (Gc.quick_stat ()).Gc.promoted_words

let no_promotion name f =
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let minors = minor_collections () and before = promoted_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  A.(check int) (name ^ ": minor collections") 1 (minor_collections () - minors);
  A.(check int) (name ^ ": promoted words") 0 (promoted_words () - before)

let test_list_not_promoted () =
  let cls = Option.get (Ast.find_class prog "T") in
  no_promotion "List of 1,000 objects" (fun () ->
      let v = V.Vec.create () in
      for i = 1 to 1000 do
        let o = V.make_object cls in
        o.V.floats.(0) <- float_of_int i;
        V.Vec.push v (V.Vobject o)
      done;
      V.Vlist v)

(* Segment 0 sets up [t], segment 1 is the statement under test; it
   runs once so that what its first run caches is allocated already. *)
let object_code src =
  let prog = Parser.parse src in
  Typecheck.check prog;
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

let tri_class =
  {|
class Tri {
  float x0; float y0; float z0;
  float x1; float y1; float z1;
  float x2; float y2; float z2;
  float shade;
}
|}

(* The record (header, class, slots, floats), the 10 floats with their
   header, and the two-word Vobject box; [slots] is the static empty
   array. *)
let tri_words = 4 + 11 + 2

let new_tri_words what stmt =
  let pk, fr =
    object_code
      (tri_class ^ "pipelined (p in [0 : 1]) {\n  Tri t = null;\n" ^ stmt ^ "\n}\n")
  in
  let n = 1000 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to n do
          Interp.run_segment pk 1 fr
        done)
  in
  if words > float_of_int (tri_words * n) then
    A.failf "%s allocates %.1f words, more than %d" what (words /. float_of_int n)
      tri_words

let test_new_object_words () = new_tri_words "new Tri()" "t = new Tri();"

let test_filled_object_words () =
  new_tri_words "new Tri() with ten fields stored"
    "{ t = new Tri(); t.x0 = 1.0; t.y0 = 2.0; t.z0 = 3.0; t.x1 = t.x0 + 1.0; \
     t.y1 = t.y0 * 2.0; t.z1 = 4; t.x2 = 5.0; t.y2 = 6.0; t.z2 = 7.0; t.shade \
     = 0.5; }"

(* A segment run on a fresh frame, which is dropped with what it built. *)
let segment_code src =
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  let pk =
    Interp.compile_packet ctx (Interp.init_globals ctx) ~inputs:[]
      [ prog.Ast.pipeline.Ast.pd_body ]
  in
  fun () -> Interp.run_segment pk 0 (Interp.new_frame pk ~packet:0)

let test_float_array_not_promoted () =
  no_promotion "new float[600]"
    (segment_code
       {|
pipelined (p in [0 : 1]) {
  float[] a = new float[600];
  for (int i = 0; i < 600; i = i + 1) {
    a[i] = float_of_int(i) * 0.5 + 1.0;
  }
}
|})

let test_unpacked_field_not_promoted () =
  let prog = Parser.parse "class Z { float[] depth; } pipelined (p in [0 : 1]) { }" in
  let layout = [ Packing.Eobj_field ("z", "Z", "depth", Ast.Tarray Ast.Tfloat) ] in
  let o = V.make_object (Option.get (Ast.find_class prog "Z")) in
  V.set_field o "depth" (V.Varray (Array.init n (fun i -> V.Vfloat (float_of_int i))));
  let data = Packing.pack prog layout ~lookup:(fun _ -> V.Vobject o) in
  no_promotion "unpacked float[] field" (fun () -> Packing.unpack prog layout data)

(* Checked code keeps [int] and [float] locals, parameters and
   temporaries unboxed: a loop allocates the same minor words whatever
   its iteration count.  The segment runs once first, so that what its
   first run caches is allocated already; then [iters] iterations and a
   hundred times as many must allocate alike. *)
let typed_loop_words ?(decls = "") body =
  let prog =
    Parser.parse
      (Printf.sprintf "%s\npipelined (p in [0 : 1]) {\n%s\n}\n" decls body)
  in
  Typecheck.check prog;
  let ctx = Interp.create_ctx ~runtime_defs:[ ("iters", 1000) ] prog in
  let pk =
    Interp.compile_packet ctx (Interp.init_globals ctx) ~inputs:[]
      [ prog.Ast.pipeline.Ast.pd_body ]
  in
  let words iters =
    Interp.set_runtime_define ctx "iters" iters;
    let fr = Interp.new_frame pk ~packet:0 in
    minor_words_of (fun () -> Interp.run_segment pk 0 fr)
  in
  ignore (words 1000);
  (words 1000, words 100_000)

let no_growth name ?decls body =
  let small, large = typed_loop_words ?decls body in
  A.(check (float 0.0)) (name ^ ": minor words at 100x the iterations") small large

let test_int_counter_loop () =
  no_growth "int counter"
    "int s = 0; for (int i = 0; i < runtime_define iters; i = i + 1) { s = s + i % 7; }"

let test_float_locals_and_params () =
  no_growth "float arithmetic"
    ~decls:
      "float mix(float a, float b, int n) { float x = 1.0; for (int i = 0; i < n; i \
       = i + 1) { x = x * a + b - x / 3.0; x = fmin(x, 8.0) + fabs(-b); } return x; }"
    "float a = 0.5; float b = 0.25; float y = 0.0; for (int i = 0; i < runtime_define \
     iters; i = i + 1) { y = y * a + b; } y = mix(a, b, runtime_define iters);"

let test_call_float_int_params () =
  no_growth "call"
    ~decls:
      "void touch(float x, int k) { } float half(float x, int k) { int j = k; float \
       y = x * 0.5; touch(y, j); return y; }"
    "float y = 0.0; for (int i = 0; i < runtime_define iters; i = i + 1) { \
     touch(y + 1.0, i); } y = half(y, 3);"

let test_float_call_loop () =
  no_growth "float call"
    ~decls:"float sq(float y) { return y * 0.5 + 1.0; } bool small(float y) { \
            return y < 3.0; }"
    "float x = 0.0; int k = 0; for (int i = 0; i < runtime_define iters; i = i \
     + 1) { x = sq(x); if (small(x)) { k = k + 1; } }"

let test_field_store_loop () =
  no_growth "Tri field stores" ~decls:tri_class
    "Tri t = new Tri(); for (int i = 0; i < runtime_define iters; i = i + 1) { \
     t.x0 = t.x0 + 1.0; t.y0 = float_of_int(i); t.shade += 0.25; t.z2 = \
     t.x0 * t.shade; }"

let test_float_array_update_loop () =
  no_growth "float[] +="
    "float[] arr = new float[600]; float x = 0.5; for (int i = 0; i < \
     runtime_define iters; i = i + 1) { arr[i % 600] += x; arr[i % 7] *= 1.0; }"

let test_merge_loop () =
  no_growth "merge loop"
    ~decls:
      "class Z { float[] depth; float[] color; void merge(Z other, int n) { for \
       (int i = 0; i < n; i = i + 1) { int j = i % 600; if (other.depth[j] < \
       this.depth[j]) { this.depth[j] = other.depth[j]; this.color[j] = \
       other.color[j]; } } } }"
    "Z a = new Z(); Z b = new Z(); a.depth = new float[600]; a.color = new \
     float[600]; b.depth = new float[600]; b.color = new float[600]; for (int i = \
     0; i < 600; i = i + 1) { b.depth[i] = 0.0 - float_of_int(i); a.depth[i] = \
     float_of_int(i % 5); } a.merge(b, runtime_define iters);"

(* The synthetic iso field and its hash, as computed before they were
   inlined: the cached-grid dataset files hold these bits. *)
let test_iso_field_bits () =
  let open Apps in
  let bits what expected f = A.(check int64) what expected (Int64.bits_of_float f) in
  List.iter
    (fun (cfg, name, x, y, z, expected) ->
      bits (Printf.sprintf "field %s %d %d %d" name x y z) expected (Isosurface.field cfg x y z))
    [
      (Isosurface.small, "small", 0, 0, 0, 0x3fbd02bfc7668768L);
      (Isosurface.small, "small", 3, 7, 11, 0x3fddef03dbc91b47L);
      (Isosurface.small, "small", 24, 24, 24, 0x3fbc122d08f84a7aL);
      (Isosurface.large, "large", 3, 7, 11, 0x3fd03296b0e60e28L);
      (Isosurface.large, "large", 24, 24, 24, 0x3fe4614f81ec879bL);
      (Isosurface.large, "large", 13, 5, 38, 0x3fc4332c1f83a194L);
      (Isosurface.tiny, "tiny", 3, 7, 11, 0x3fa97aa9e7752ca0L);
    ];
  List.iter
    (fun (s, i, expected) ->
      bits (Printf.sprintf "hash_float %d %d" s i) expected (Prng.hash_float s i))
    [
      (42, 0, 0x3fe6a967881103c5L);
      (7, 12345, 0x3fe98fc23a41e96aL);
      (11, 999999, 0x3fd9d75ed78b16e6L);
      (0, -3, 0x3fd1fd50703ca9e8L);
    ];
  A.(check int64) "hash2 42 0" 0xb54b3c40881e2907L (Prng.hash2 42 0)

(* [read_cubes] calls [field] eight times per cube: it may box its
   result (2 words), and in a build without cross-module inlining (the
   dev profile compiles with [-opaque]) [Prng.hash_float]'s too; it used
   to allocate 27. *)
let test_iso_field_words () =
  let cfg = Apps.Isosurface.large in
  let n = 10_000 in
  let acc = [| 0.0 |] in
  let words =
    minor_words_of (fun () ->
        for i = 0 to n - 1 do
          acc.(0) <- acc.(0) +. Apps.Isosurface.field cfg (i mod 39) (i / 39 mod 39) (i mod 7)
        done)
  in
  ignore (Sys.opaque_identity acc);
  if words > float_of_int (4 * n) then
    A.failf "Isosurface.field allocates %.1f words per call, more than 4"
      (words /. float_of_int n)

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
      ( "no promotion when dropped",
        [
          ("List of fresh objects", `Quick, test_list_not_promoted);
          ("new float[] filled with computed values", `Quick,
            test_float_array_not_promoted);
          ("unpacked float[] object field", `Quick, test_unpacked_field_not_promoted);
        ] );
      ( "object allocation",
        [
          ("field read allocates nothing", `Quick, test_field_read_allocates_nothing);
          ("new object is its record and floats", `Quick, test_new_object_words);
          ("filled object stays its record and floats", `Quick,
            test_filled_object_words);
        ] );
      ( "typed frames",
        [
          ("int counter loop", `Quick, test_int_counter_loop);
          ("float locals and parameters", `Quick, test_float_locals_and_params);
          ("call with float and int parameters", `Quick, test_call_float_int_params);
          ("float[] compare-and-store loop", `Quick, test_merge_loop);
          ("float and bool calls in a loop", `Quick, test_float_call_loop);
          ("Tri field-store loop", `Quick, test_field_store_loop);
          ("float[] += loop", `Quick, test_float_array_update_loop);
        ] );
      ( "iso data generator",
        [
          ("values pinned bit for bit", `Quick, test_iso_field_bits);
          ("field boxes only floats", `Quick, test_iso_field_words);
        ] );
    ]
