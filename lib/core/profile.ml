(* Workload profiling.

   The cost model (§4.3) needs, per candidate filter, the number of
   operations executed per packet, and per candidate boundary, the
   communication volume.  The compiler obtains both by executing the
   segments on a few sample packets with the instrumented interpreter:
   operation counters give Task(f_i), and the packed size of the ReqComm
   set against the live environment gives Vol(f_i).  (The paper counts
   operations statically; profiling on sample packets is the same model
   with measured trip counts, and keeps the cost model honest for
   data-dependent selectivity such as the isosurface cube test.) *)

open Lang

type t = {
  profile : Costmodel.profile;
  (* bytes that cross each boundary per packet, indexed like
     [Reqcomm.reqcomm_into] (entry i = entering segment i) *)
  boundary_bytes : float array;
  (* packed size of the final reduction state *)
  final_bytes : float;
}

(* Profile the analyzed program's segments by running [samples] packets
   end-to-end.  The [num_packets] parameter is the N of the cost formula
   (the real packet count of the run being planned, not the sample
   size). *)
let run (rc : Reqcomm.t) ~(externs : (string * Interp.extern_fn) list)
    ~(runtime_defs : (string * int) list) ~(num_packets : int)
    ?(samples = [ 0 ]) ?(weights = Opcount.default_weights)
    ?(final_copies = 1) () : t =
  let prog = rc.Reqcomm.prog and segments = Reqcomm.segments rc in
  let n1 = List.length segments in
  if n1 = 0 then invalid_arg "Profile.run: no segments";
  let tyenv = Tyenv.of_segments prog segments in
  (* Volume is layout-independent; use the identity filter map. *)
  let layouts =
    Array.init (n1 + 1) (fun i ->
        if i = 0 then []
        else Packing.layout_for_cut tyenv rc ~cut:i ~filter_of_seg:(fun s -> s))
  in
  let ctx = Interp.create_ctx ~externs ~runtime_defs prog in
  let genv = Interp.init_globals ctx in
  let code =
    Interp.compile_packet ctx genv ~inputs:[]
      (List.map (fun seg -> seg.Boundary.seg_stmts) segments)
  in
  let lookups =
    Array.map
      (fun layout -> Interp.lookup code (Packing.lookup_names layout))
      layouts
  in
  let task = Array.make n1 0.0 in
  let vols = Array.make (n1 + 1) 0.0 in
  let n_samples = List.length samples in
  List.iter
    (fun p ->
      Obs.Trace.with_span ~cat:"profile"
        ~args:[ ("packet", Obs.Trace.Aint p) ]
        (Printf.sprintf "sample %d" p)
      @@ fun () ->
      let fr = Interp.new_frame code ~packet:p in
      for i = 0 to n1 - 1 do
        let before = Opcount.copy ctx.Interp.counter in
        Interp.run_segment code i fr;
        let d = Opcount.diff ~after:ctx.Interp.counter ~before in
        task.(i) <- task.(i) +. Opcount.weighted ~weights d;
        if i < n1 - 1 then begin
          let lookup =
            Packing.runtime_aware_lookup
              ~runtime_def:(Hashtbl.find_opt ctx.Interp.runtime_defs)
              ~lookup:(lookups.(i + 1) fr)
          in
          vols.(i + 1) <-
            vols.(i + 1)
            +. float_of_int (Packing.packed_size prog layouts.(i + 1) ~lookup)
        end
      done)
    samples;
  let avg = float_of_int (max 1 n_samples) in
  Array.iteri (fun i v -> task.(i) <- v /. avg) task;
  Array.iteri (fun i v -> vols.(i) <- v /. avg) vols;
  (* final reduction state size after the sample run *)
  let final_globals =
    List.filter_map
      (fun g ->
        if Reqcomm.S.mem g.Ast.gd_name rc.Reqcomm.reduc then
          Some (g.Ast.gd_name, g.Ast.gd_ty, Interp.global_value genv g.Ast.gd_name)
        else None)
      prog.Ast.globals
  in
  let final_bytes = float_of_int (Objpack.packed_size prog final_globals) in
  (* vol_out.(i): bytes produced by segment i = bytes entering segment
     i+1.  The last segment's output is the final reduction state; with
     transparent copies every copy ships its partial at finalize, so the
     per-packet amortization scales with [final_copies]. *)
  let vol_out =
    Array.init n1 (fun i ->
        if i = n1 - 1 then
          final_bytes *. float_of_int final_copies
          /. float_of_int (max 1 num_packets)
        else vols.(i + 1))
  in
  {
    profile = { Costmodel.task; vol_out; packets = num_packets };
    boundary_bytes = vols;
    final_bytes;
  }
