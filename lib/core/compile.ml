(* End-to-end compilation driver.

   parse -> type check -> loop fission & boundary selection -> Gen/Cons
   & ReqComm analysis -> profiling -> decomposition -> filter codegen.

   The decomposition strategy is either the paper's dynamic program
   (`Decomp`), the Default baseline (read on the data host, everything
   else on the compute unit, results viewed on the last unit), or an
   explicit assignment (used for manual comparisons and ablations). *)

open Lang
module SS = Set.Make (String)

let src = Logs.Src.create "cgpp.compile" ~doc:"compilation driver"

module Log = (val Logs.src_log src : Logs.LOG)

type strategy =
  | Decomp                     (* DP decomposition, §4.4 *)
  | Default                    (* forward-everything baseline, §6.2 *)
  | Fixed of int array         (* explicit segment -> unit map *)

type t = {
  rc : Reqcomm.t;  (* the analyzed program: its segments and ReqComm sets *)
  profile : Profile.t;
  pipeline : Costmodel.pipeline;
  constraints : Decompose.constraints;
  assignment : Costmodel.assignment;
  predicted_latency : float;
  predicted_total : float;
  layout_mode : Packing.mode;
  plan : Codegen.plan;
}

(* Compiler phases announce themselves as spans on the compiler's
   virtual thread (no-ops unless Obs.Trace.enable was called). *)
let phase name f = Obs.Trace.with_span ~cat:"compiler" name f

(* Parse and type check only (no decomposition). *)
let front_end ?(file = "<input>") ~externs_sig source =
  phase "front_end" (fun () ->
      let prog = Parser.parse ~file source in
      Typecheck.check ~externs:externs_sig prog;
      prog)

(* Pinning constraints from the extern classification. *)
let constraints_of ~rc ~source_externs ~sink_externs =
  let pin_first = Reqcomm.segments_calling rc (SS.of_list source_externs) in
  let pin_last = Reqcomm.segments_calling rc (SS.of_list sink_externs) in
  (* segment 0 contains the data read by construction; keep it pinned even
     when the program names no explicit source extern *)
  let pin_first = if pin_first = [] then [ 0 ] else pin_first in
  { Decompose.pin_first; pin_last }

(* The decision step [compile] and [replan] share: decompose the
   profiled program onto [pipeline] under [strategy], then generate the
   filter plan with the program's layout mode.  [who] names the caller
   in errors. *)
let decide ~who ~strategy ~layout_mode ~pipeline ~constraints ~num_packets
    ~externs ~runtime_defs rc profile =
  let m = Costmodel.width_of pipeline in
  let n1 = Reqcomm.segment_count rc in
  let assignment, predicted_latency =
    phase "decompose" @@ fun () ->
    match strategy with
    | Decomp ->
        (* the Fig. 3 DP minimizes single-packet latency; the bottleneck
           search minimizes the §4.3 steady-state total — keep whichever
           predicts the lower total time *)
        let r1 = Decompose.dp ~cons:constraints pipeline profile in
        let r2 = Decompose.bottleneck ~cons:constraints pipeline profile in
        let r = if r1.Decompose.total <= r2.Decompose.total then r1 else r2 in
        (r.Decompose.assignment, r.Decompose.latency)
    | Default ->
        let a = Decompose.default_assignment ~m ~segments:n1 in
        (a, Costmodel.latency_time pipeline profile a)
    | Fixed a ->
        if Array.length a <> n1 then
          invalid_arg (who ^ ": fixed assignment length mismatch");
        (a, Costmodel.latency_time pipeline profile a)
  in
  let predicted_total = Costmodel.total_time pipeline profile assignment in
  Log.info (fun m ->
      m "decomposition %a: predicted latency %.6fs, total %.6fs"
        Costmodel.pp_assignment assignment predicted_latency predicted_total);
  let plan =
    phase "codegen" (fun () ->
        Codegen.make_plan ~layout_mode rc ~assignment ~m
          ~num_packets ~externs ~runtime_defs)
  in
  (assignment, predicted_latency, predicted_total, plan)

let compile ?(file = "<input>") ~(source : string)
    ~(externs_sig : Typecheck.extern_sig list)
    ~(externs : (string * Interp.extern_fn) list)
    ?(runtime_defs : (string * int) list = [])
    ~(pipeline : Costmodel.pipeline) ~(num_packets : int)
    ?(source_externs : string list = []) ?(sink_externs : string list = [])
    ?(strategy = Decomp) ?(samples = [ 0 ])
    ?(layout_mode : Packing.mode = `Auto) ?(final_copies = 1) () : t =
  let prog = front_end ~file ~externs_sig source in
  Log.info (fun m ->
      m "front end: %d classes, %d functions, %d globals"
        (List.length prog.Ast.classes)
        (List.length prog.Ast.funcs)
        (List.length prog.Ast.globals));
  let rc = phase "reqcomm" (fun () -> Reqcomm.analyze prog) in
  let segments = Reqcomm.segments rc in
  Log.info (fun m ->
      m "boundaries: %d atomic filters (%s)" (List.length segments)
        (String.concat " | "
           (List.map (fun s -> s.Boundary.seg_label) segments)));
  Log.debug (fun m -> m "reqcomm:@
%a" Reqcomm.pp rc);
  let tyenv = Tyenv.of_segments prog segments in
  (* Boundary communication copies values, which would break aliasing
     between two references crossing the same boundary: reject such
     programs up front (may-alias is conservative, see Alias). *)
  let () =
    phase "alias_check" @@ fun () ->
    let body = List.concat_map (fun s -> s.Boundary.seg_stmts) segments in
    let gctx = Gencons.create_ctx prog body in
    let aliases = Gencons.aliases_of gctx body in
    let n1 = List.length segments in
    for i = 1 to n1 - 1 do
      let bases =
        Varset.fold
          (fun item acc ->
            let b = Varset.base item in
            match Tyenv.find tyenv b with
            | Some (Ast.Tclass _) | Some (Ast.Tlist _) | Some (Ast.Tarray _)
              ->
                if List.mem b acc then acc else b :: acc
            | _ -> acc)
          (Reqcomm.reqcomm_into rc i) []
      in
      List.iteri
        (fun j a ->
          List.iteri
            (fun k b ->
              if j < k && Alias.may_alias aliases a b then
                Srcloc.errorf prog.Ast.pipeline.Ast.pd_loc
                  "references %s and %s may alias and would cross the \
                   candidate boundary b%d; aliased references cannot be \
                   communicated by value"
                  a b i)
            bases)
        bases
    done
  in
  let runtime_defs = ("num_packets", num_packets) :: runtime_defs in
  let profile =
    phase "profile" (fun () ->
        Profile.run rc ~externs ~runtime_defs ~num_packets
          ~samples ~final_copies ())
  in
  Log.info (fun m' ->
      m' "profile: tasks [%s], volumes [%s]"
        (String.concat "; "
           (Array.to_list
              (Array.map (Printf.sprintf "%.0f") profile.Profile.profile.Costmodel.task)))
        (String.concat "; "
           (Array.to_list
              (Array.map (Printf.sprintf "%.0f")
                 profile.Profile.profile.Costmodel.vol_out))));
  let constraints = constraints_of ~rc ~source_externs ~sink_externs in
  let assignment, predicted_latency, predicted_total, plan =
    decide ~who:"compile" ~strategy ~layout_mode ~pipeline ~constraints
      ~num_packets ~externs ~runtime_defs rc profile.Profile.profile
  in
  {
    rc;
    profile;
    pipeline;
    constraints;
    assignment;
    predicted_latency;
    predicted_total;
    layout_mode;
    plan;
  }

(* Reference (sequential) execution of the same program and inputs,
   returning the reduction globals for correctness comparison. *)
let run_reference (c : t) : (string * Value.t) list =
  let ctx =
    Interp.create_ctx ~externs:c.plan.Codegen.externs
      ~runtime_defs:c.plan.Codegen.runtime_defs c.rc.Reqcomm.prog
  in
  let genv = Interp.run_reference ctx in
  Reqcomm.S.elements c.rc.Reqcomm.reduc
  |> List.map (fun name -> (name, Interp.global_value genv name))

let pp_summary ppf (c : t) =
  Fmt.pf ppf "segments:@\n";
  List.iter
    (fun (s : Boundary.segment) ->
      Fmt.pf ppf "  %a -> C%d@\n" Boundary.pp_segment s
        c.assignment.(s.Boundary.seg_index))
    (Reqcomm.segments c.rc);
  Fmt.pf ppf "predicted latency %.6fs, total %.6fs@\n" c.predicted_latency
    c.predicted_total

(* ------------------------------------------------------------------ *)
(* §8 future-work features                                             *)
(* ------------------------------------------------------------------ *)

(* Recompute the decomposition of an already-analyzed program for a new
   environment (the paper's "available compute and communication
   resources can change at runtime").  Front-end analysis and profiling
   are reused; only the decomposition and the codegen plan are redone. *)
let replan (c : t) ~(pipeline : Costmodel.pipeline) ?(strategy = Decomp) () :
    t =
  let p = c.plan in
  let assignment, predicted_latency, predicted_total, plan =
    decide ~who:"replan" ~strategy ~layout_mode:c.layout_mode ~pipeline
      ~constraints:c.constraints ~num_packets:p.Codegen.num_packets
      ~externs:p.Codegen.externs ~runtime_defs:p.Codegen.runtime_defs c.rc
      c.profile.Profile.profile
  in
  { c with pipeline; assignment; predicted_latency; predicted_total; plan }

(* Predicted-best packet count for the compiled program (§8
   "automatically choosing the packet size").  The measured profile is
   rescaled to each candidate count, re-decomposed, and scored with the
   steady-state cost model; per-buffer latency penalizes many small
   packets, pipeline fill (and, with [final_copies], end-of-stream
   reduction traffic) penalizes few large ones. *)
let suggest_packet_count (c : t) ?(candidates = [ 2; 4; 8; 12; 16; 24; 32; 48; 64; 96; 128 ])
    () : int * (int * float) list =
  let scored =
    List.filter_map
      (fun n ->
        if n <= 0 then None
        else begin
          let profile =
            Costmodel.rescale_profile c.profile.Profile.profile ~packets:n
          in
          match Decompose.bottleneck ~cons:c.constraints c.pipeline profile with
          | r -> Some (n, r.Decompose.total)
          | exception Invalid_argument _ -> None
        end)
      candidates
  in
  match scored with
  | [] -> invalid_arg "suggest_packet_count: no feasible candidate"
  | (n0, t0) :: rest ->
      let best, _ =
        List.fold_left
          (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
          (n0, t0) rest
      in
      (best, scored)
