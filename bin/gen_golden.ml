(* Regenerate the golden files of test_emit_golden, the filter code of
   two plans and the ReqComm sets of the five applications:
     dune exec bin/gen_golden.exe -- <output-dir> *)
open Core
module H = Apps.Harness

let analyze (app : H.app) =
  Reqcomm.analyze (Compile.front_end ~externs_sig:app.H.externs_sig app.H.source)

let emit app assignment m =
  Emit.emit_plan
    (Codegen.make_plan (analyze app) ~assignment ~m
       ~num_packets:app.H.num_packets ~externs:app.H.externs
       ~runtime_defs:(("num_packets", app.H.num_packets) :: app.H.runtime_defs))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let km = Apps.Kmeans.tiny in
  List.iter
    (fun (file, text) ->
      let path = Filename.concat dir file in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Printf.printf "wrote %s\n" path)
    (("knn_filters.txt", emit (H.knn_app Apps.Knn.tiny) [| 1; 1; 1; 2 |] 3)
     :: ("vmscope_filters.txt", emit (H.vmscope_app Apps.Vmscope.tiny) [| 1; 1; 3 |] 3)
     :: List.map
          (fun (name, app) ->
            (name ^ "_reqcomm.txt", Fmt.str "%a" Reqcomm.pp (analyze app)))
          [ ("zbuffer", H.iso_app ~variant:`Zbuffer Apps.Isosurface.tiny);
            ("apix", H.iso_app ~variant:`Apix Apps.Isosurface.tiny);
            ("knn", H.knn_app Apps.Knn.tiny); ("vmscope", H.vmscope_app Apps.Vmscope.tiny);
            ("kmeans", H.kmeans_app km (Apps.Kmeans.initial_centroids km)) ])
