(* Golden tests for the filter emitter and the ReqComm analysis: the
   rendered filter code of two applications at fixed decompositions,
   and the ReqComm sets of all five applications (what `cgppc inspect`
   prints), must match the committed files.  Regenerate with
   `dune exec bin/gen_golden.exe -- test/golden` after an intentional
   change. *)

module A = Alcotest
open Core
module H = Apps.Harness

let analyze (app : H.app) =
  Reqcomm.analyze
    (Compile.front_end ~externs_sig:app.H.externs_sig app.H.source)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The test binary runs from its own build directory; golden files are
   copied next to it by the dune rule (deps). *)
let golden name = read_file (Filename.concat "golden" name)

let check_emit name app assignment m () =
  let plan =
    Codegen.make_plan (analyze app) ~assignment ~m
      ~num_packets:app.H.num_packets ~externs:app.H.externs
      ~runtime_defs:(("num_packets", app.H.num_packets) :: app.H.runtime_defs)
  in
  A.(check string) name (golden name) (Emit.emit_plan plan)

let check_reqcomm name app () =
  A.(check string) name (golden name) (Fmt.str "%a" Reqcomm.pp (analyze app))

let suite =
  [
    ( "knn filters",
      `Quick,
      check_emit "knn_filters.txt" (H.knn_app Apps.Knn.tiny)
        [| 1; 1; 1; 2 |] 3 );
    ( "vmscope filters",
      `Quick,
      check_emit "vmscope_filters.txt"
        (H.vmscope_app Apps.Vmscope.tiny)
        [| 1; 1; 3 |] 3 );
  ]
  @
  let kmeans = Apps.Kmeans.tiny in
  List.map
    (fun (name, app) ->
      (name ^ " reqcomm", `Quick, check_reqcomm (name ^ "_reqcomm.txt") app))
    [
      ("zbuffer", H.iso_app ~variant:`Zbuffer Apps.Isosurface.tiny);
      ("apix", H.iso_app ~variant:`Apix Apps.Isosurface.tiny);
      ("knn", H.knn_app Apps.Knn.tiny);
      ("vmscope", H.vmscope_app Apps.Vmscope.tiny);
      ("kmeans", H.kmeans_app kmeans (Apps.Kmeans.initial_centroids kmeans));
    ]

let () = Alcotest.run "emit-golden" [ ("emit-golden", suite) ]
