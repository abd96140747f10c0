(* Pins the cost model's inputs.  The operation counts of a sequential
   reference run and the profiler's per-segment task/volume figures feed
   the DP that picks every decomposition, so any change to how the
   interpreter charges operations shows up here first.  The expected
   values were recorded on the interpreter these pins guard; a change
   that moves them changes every plan and must say so. *)

module A = Alcotest
open Lang
open Core
module V = Value
module H = Apps.Harness

(* A bit-exact rendering of a value: floats in hex, object fields in
   name order. *)
let rec render b = function
  | V.Vunit -> Buffer.add_string b "()"
  | V.Vnull -> Buffer.add_string b "null"
  | V.Vint n -> Buffer.add_string b (string_of_int n)
  | V.Vfloat f -> Buffer.add_string b (Printf.sprintf "%h" f)
  | V.Vbool x -> Buffer.add_string b (string_of_bool x)
  | V.Vstring s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | V.Vrange (lo, hi) -> Buffer.add_string b (Printf.sprintf "[%d:%d]" lo hi)
  | V.Varray a ->
      Buffer.add_string b "[|";
      Array.iter (fun v -> render b v; Buffer.add_char b ';') a;
      Buffer.add_string b "|]"
  | V.Vfloats a -> render b (V.Varray (V.as_array (V.Vfloats a)))
  | V.Vlist l ->
      Buffer.add_string b "L[";
      V.Vec.iter (fun v -> render b v; Buffer.add_char b ';') l;
      Buffer.add_string b "]"
  | V.Vobject o ->
      Buffer.add_string b o.V.cls.Ast.cd_name;
      Buffer.add_char b '{';
      List.map (fun (_, k) -> (k, V.field o k)) o.V.cls.Ast.cd_fields
      |> List.sort (fun (x, _) (y, _) -> String.compare x y)
      |> List.iter (fun (k, v) ->
             Buffer.add_string b k;
             Buffer.add_char b '=';
             render b v;
             Buffer.add_char b ',');
      Buffer.add_char b '}'

let reference_run (app : H.app) =
  let prog = Parser.parse ~file:app.H.name app.H.source in
  Typecheck.check ~externs:app.H.externs_sig prog;
  let ctx =
    Interp.create_ctx ~externs:app.H.externs
      ~runtime_defs:(("num_packets", app.H.num_packets) :: app.H.runtime_defs)
      prog
  in
  let genv = Interp.run_reference ctx in
  let b = Buffer.create 4096 in
  Reqcomm.S.iter
    (fun name ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      render b (Interp.global_value genv name);
      Buffer.add_char b '\n')
    (Reqcomm.reduction_globals prog);
  (ctx.Interp.counter, Digest.to_hex (Digest.string (Buffer.contents b)))

let kmeans_app =
  let cfg = Apps.Kmeans.tiny in
  {
    H.name = "kmeans";
    source = Apps.Kmeans.source;
    externs_sig = Apps.Kmeans.externs_sig;
    externs = Apps.Kmeans.externs cfg (Apps.Kmeans.initial_centroids cfg);
    runtime_defs = Apps.Kmeans.runtime_defs cfg;
    num_packets = cfg.Apps.Kmeans.num_packets;
    source_externs = Apps.Kmeans.source_externs;
  }

let iso name variant cfg = H.iso_app ~name ~variant cfg

(* (app, [int; float; mem; branch; calls; appends; allocs], digest of the
   printed reduction globals) *)
let reference_pins =
  [
    (iso "zbuffer-tiny" `Zbuffer Apps.Isosurface.tiny,
      [| 61534; 71599; 81398; 34809; 32191; 470; 423 |],
      "3cbcbf71e2c3313f1d3eccf617e70a77");
    (iso "zbuffer-small" `Zbuffer Apps.Isosurface.small,
      [| 1150906; 1398759; 2713178; 665353; 700207; 7914; 7047 |],
      "2f8fc6163c555d1f2b757122ffeba674");
    (iso "apix-tiny" `Apix Apps.Isosurface.tiny,
      [| 60440; 71685; 79661; 35116; 32824; 784; 566 |],
      "ac815dbd31981d78229f88c3e06c785d");
    (iso "apix-small" `Apix Apps.Isosurface.small,
      [| 1086231; 1399591; 2598885; 657066; 712560; 13372; 8106 |],
      "6d4954b61b45e1f84eb6e0235653974a");
    (H.knn_app Apps.Knn.tiny,
      [| 715; 2821; 8554; 1233; 397; 0; 25 |],
      "45b2172a0117d6179f215e8510cd0e89");
    (H.knn_app ~name:"knn-base" Apps.Knn.base_config,
      [| 37975; 324575; 800741; 109673; 36388; 0; 65 |],
      "ecce46140629c59cfbad35b32b8aee64");
    (iso "zbuffer-large" `Zbuffer Apps.Isosurface.large,
      [| 3195226; 3944796; 9600766; 1867801; 2091463; 20330; 18535 |],
      "275fc05f0fb83a68141d7a4dbd619a2c");
    (kmeans_app,
      [| 2051; 4824; 12121; 1988; 45; 0; 28 |],
      "8d9d661ecaf7cb6d056a59c6b83b8b78");
    (H.vmscope_app Apps.Vmscope.tiny,
      [| 3205; 192; 41349; 2369; 773; 64; 8 |],
      "dc1556147fa327642bde328f4c3c5b31");
  ]

let fields (c : Opcount.t) =
  Opcount.[| c.int_ops; c.float_ops; c.mem_ops; c.branch_ops; c.calls; c.appends; c.allocs |]

let field_names = [| "int"; "float"; "mem"; "branch"; "calls"; "appends"; "allocs" |]

let check_reference (app, expected, digest) () =
  let counter, got_digest = reference_run app in
  let got = fields counter in
  Array.iteri
    (fun i name -> A.(check int) (app.H.name ^ " " ^ name) expected.(i) got.(i))
    field_names;
  A.(check string) (app.H.name ^ " reduction globals") digest got_digest

(* Isosurface.small planned for 2-2-1: the profiler's per-segment
   weighted operations and output bytes. *)
let profile_task =
  [| 0x1.b008p+14; 0x1.69e6p+14; 0x1.3d6p+12; 0x1.2a4p+13; 0x1.45dp+12;
     0x1.bdbdp+16; 0x1.0038p+13 |]
let profile_vol_out =
  [| 0x1.8c2p+14; 0x1.4ep+10; 0x1.7c8p+12; 0x1.7c8p+12; 0x1.df4p+13;
     0x1.208p+13; 0x1.824aaaaaaaaabp+8 |]

let check_profile () =
  let c = H.compile ~widths:[| 2; 2; 1 |] (iso "zbuffer-small" `Zbuffer Apps.Isosurface.small) in
  let p = c.Compile.profile.Profile.profile in
  A.(check (array (float 0.0))) "task" profile_task p.Costmodel.task;
  A.(check (array (float 0.0))) "vol_out" profile_vol_out p.Costmodel.vol_out

(* The bytes [Packing.pack] writes on each boundary of an app's compiled
   Decomp plan (2-2-1) for packet 0, as an MD5 per boundary in unit
   order.  The golden files pin only sizes; these pin entry order and
   every value's encoding.  kmeans's Decomp plan keeps every segment on
   C1, so its collection boundary is pinned under the Default plan. *)
let packed_digests ?strategy ?layout_mode (app : H.app) =
  let c = H.compile ?strategy ?layout_mode ~widths:[| 2; 2; 1 |] app in
  let plan = c.Compile.plan in
  let ctx =
    Interp.create_ctx ~externs:plan.Codegen.externs
      ~runtime_defs:plan.Codegen.runtime_defs plan.Codegen.rc.Reqcomm.prog
  in
  let code =
    Interp.compile_packet ctx (Interp.init_globals ctx) ~inputs:[]
      (List.map
         (fun s -> s.Boundary.seg_stmts)
         (Reqcomm.segments plan.Codegen.rc))
  in
  let fr = Interp.new_frame code ~packet:0 in
  let digests = ref [] in
  Array.iteri
    (fun i _ ->
      Interp.run_segment code i fr;
      for u = 2 to plan.Codegen.m do
        let layout = plan.Codegen.layouts.(u - 1) in
        if plan.Codegen.cuts.(u - 1) = i + 1 && layout <> [] then
          let lookup =
            Packing.runtime_aware_lookup
              ~runtime_def:(Hashtbl.find_opt ctx.Interp.runtime_defs)
              ~lookup:(Interp.lookup code (Packing.lookup_names layout) fr)
          in
          let bytes = Packing.pack plan.Codegen.rc.Reqcomm.prog layout ~lookup in
          digests := Digest.to_hex (Digest.bytes bytes) :: !digests
      done)
    plan.Codegen.rc.Reqcomm.segs;
  List.rev !digests

let packed_pins =
  let knn = H.knn_app Apps.Knn.tiny in
  [
    ("zbuffer",
      (fun () -> packed_digests (iso "zbuffer-tiny" `Zbuffer Apps.Isosurface.tiny)),
      [ "bca471249bde9254700c9e185b471d41" ]);
    ("apix",
      (fun () -> packed_digests (iso "apix-tiny" `Apix Apps.Isosurface.tiny)),
      [ "bca471249bde9254700c9e185b471d41" ]);
    ("knn", (fun () -> packed_digests knn), [ "3fe9fb32fd832a2ecb624333a45d3ab9" ]);
    ("knn all-instance",
      (fun () -> packed_digests ~layout_mode:`All_instance knn),
      [ "3fe9fb32fd832a2ecb624333a45d3ab9" ]);
    ("knn all-fieldwise",
      (fun () -> packed_digests ~layout_mode:`All_fieldwise knn),
      [ "3fe9fb32fd832a2ecb624333a45d3ab9" ]);
    ("vmscope",
      (fun () -> packed_digests (H.vmscope_app Apps.Vmscope.tiny)),
      [ "7d989d746b34bf7abb9d73ce1e360f99" ]);
    ("kmeans", (fun () -> packed_digests kmeans_app), []);
    ("kmeans default",
      (fun () -> packed_digests ~strategy:Compile.Default kmeans_app),
      [ "58e175a6f3e2492cac632a675c7265ec" ]);
    ("kmeans default all-fieldwise",
      (fun () ->
        packed_digests ~strategy:Compile.Default ~layout_mode:`All_fieldwise kmeans_app),
      [ "bdbaba2d94a137502ce996afc8e61122" ]);
  ]

let check_packed (name, digests, expected) () =
  A.(check (list string)) (name ^ " packed bytes") expected (digests ())

let () =
  Alcotest.run "opcount-pin"
    [
      ( "reference",
        List.mapi
          (fun i ((app, _, _) as pin) ->
            A.test_case (Printf.sprintf "%d %s" i app.H.name) `Quick
              (check_reference pin))
          reference_pins );
      ("profile", [ A.test_case "iso small 2-2-1" `Quick check_profile ]);
      ( "packed",
        List.map
          (fun ((name, _, _) as pin) -> A.test_case name `Quick (check_packed pin))
          packed_pins );
    ]

