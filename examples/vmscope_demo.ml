(* Virtual-microscope demo: run two queries against the synthetic slide
   through the compiled pipeline and display the assembled output images,
   showing how the clip/subsample stage lands on the data host and only
   the subsampled pixels cross the network (§6.5).

     dune exec examples/vmscope_demo.exe                                 *)

open Core
module H = Apps.Harness

(* Unwrap a harness cell, rendering a runtime failure readably. *)
let cell = function
  | Ok v -> v
  | Error e -> Fmt.failwith "run failed: %a" Datacutter.Supervisor.pp_run_error e

let show_image r g b w h =
  (* luminance as ASCII *)
  let shades = " .:-=+*#%@" in
  for y = 0 to h - 1 do
    let line = Buffer.create w in
    for x = 0 to w - 1 do
      let i = (y * w) + x in
      if r.(i) < 0.0 then Buffer.add_char line '?'
      else begin
        let lum = (0.3 *. r.(i)) +. (0.6 *. g.(i)) +. (0.1 *. b.(i)) in
        let c = int_of_float (lum *. 9.99) in
        Buffer.add_char line shades.[max 0 (min 9 c)]
      end
    done;
    print_endline (Buffer.contents line)
  done

let run_query label cfg =
  let ow, oh = Apps.Vmscope.out_dims cfg in
  Fmt.pr "@.%s: region (%d,%d)-(%d,%d), subsample %d -> %dx%d output@." label
    cfg.Apps.Vmscope.qx0 cfg.Apps.Vmscope.qy0 cfg.Apps.Vmscope.qx1
    cfg.Apps.Vmscope.qy1 cfg.Apps.Vmscope.subsample ow oh;
  let app = H.vmscope_app cfg in
  let t, bytes, results, c = cell (H.run_cell ~widths:[| 2; 2; 1 |] app) in
  Fmt.pr "decomposition %a, %.3fs simulated, %.0f KB over the network@."
    Costmodel.pp_assignment c.Compile.assignment t (bytes /. 1024.);
  let r, g, b = Apps.Vmscope.image_arrays (List.assoc "view" results) in
  let orr, _, _ = Apps.Vmscope.oracle cfg in
  let ok =
    Array.length r = Array.length orr
    && Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) r orr
  in
  Fmt.pr "matches direct computation: %b@." ok;
  show_image r g b ow oh;
  ok

let () =
  (* a moderate zoomed-out query so the ASCII image stays small *)
  let overview =
    {
      Apps.Vmscope.base with
      Apps.Vmscope.qx0 = 8;
      qy0 = 8;
      qx1 = 184;
      qy1 = 184;
      subsample = 4;
    }
  in
  let detail =
    {
      Apps.Vmscope.base with
      Apps.Vmscope.qx0 = 64;
      qy0 = 64;
      qx1 = 128;
      qy1 = 128;
      subsample = 2;
    }
  in
  let ok_overview = run_query "overview query" overview in
  let ok_detail = run_query "detail query" detail in
  if not (ok_overview && ok_detail) then exit 1
