(* Isosurface rendering demo: compile the paper's z-buffer application,
   run the decomposed pipeline on the simulated cluster, and print the
   rendered isosurface as ASCII art — demonstrating that the distributed
   execution really computes the image (and agrees with the active-pixels
   algorithm).

     dune exec examples/isosurface_demo.exe                              *)

open Core
module H = Apps.Harness

(* Unwrap a harness cell, rendering a runtime failure readably. *)
let cell = function
  | Ok v -> v
  | Error e -> Fmt.failwith "run failed: %a" Datacutter.Supervisor.pp_run_error e

let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let render depth color w h =
  for y = h - 1 downto 0 do
    let line = Buffer.create w in
    for x = 0 to w - 1 do
      let i = (y * w) + x in
      if depth.(i) > 1e8 then Buffer.add_char line ' '
      else begin
        let c = int_of_float (color.(i) *. 9.0) in
        Buffer.add_char line shades.(max 0 (min 9 c))
      end
    done;
    print_endline (Buffer.contents line)
  done

let () =
  let cfg = Apps.Isosurface.small in
  Fmt.pr "compiling the z-buffer isosurface program (%dx%dx%d grid, %d packets)...@."
    cfg.Apps.Isosurface.grid_dim cfg.Apps.Isosurface.grid_dim
    cfg.Apps.Isosurface.grid_dim cfg.Apps.Isosurface.num_packets;
  let app = H.iso_app ~variant:`Zbuffer cfg in
  let widths = [| 2; 2; 1 |] in
  let t, bytes, results, c = cell (H.run_cell ~widths app) in
  Fmt.pr "decomposition: %a@." Costmodel.pp_assignment c.Compile.assignment;
  List.iter
    (fun (s : Boundary.segment) ->
      Fmt.pr "  %a on C%d@." Boundary.pp_segment s
        c.Compile.assignment.(s.Boundary.seg_index))
    (Reqcomm.segments c.Compile.rc);
  Fmt.pr "simulated 2-2-1 run: %.3fs, %.0f KB moved@.@." t (bytes /. 1024.);
  let depth, color =
    Apps.Isosurface.zbuffer_arrays (List.assoc "zfinal" results)
  in
  render depth color cfg.Apps.Isosurface.screen cfg.Apps.Isosurface.screen;
  (* cross-check with the active-pixels algorithm *)
  let app2 = H.iso_app ~variant:`Apix cfg in
  let _, _, results2, _ = cell (H.run_cell ~widths app2) in
  let pixels = Apps.Isosurface.apix_pixels (List.assoc "afinal" results2) in
  let agree =
    List.for_all
      (fun (i, d, s) ->
        abs_float (depth.(i) -. d) < 1e-9 && abs_float (color.(i) -. s) < 1e-9)
      pixels
  in
  Fmt.pr "@.active-pixels algorithm rendered %d pixels; agrees with z-buffer: %b@."
    (List.length pixels) agree;
  if not agree then exit 1
