(* Required-communication analysis (§4.2) of the compiler's chain.

   Given the atomic filters (segments) f_1 .. f_{n+1}, the set of values
   that must cross each candidate boundary is

     ReqComm(end)  = {}
     ReqComm(b_i)  = (ReqComm(b_{i+1}) - Gen(f_{i+1})) + Cons(f_{i+1})

   computed by [Bgraph.reqcomm]'s one backward propagation over the
   chain, which also leaves globals out of per-packet communication.  As
   the paper observes, the computed set at a boundary remains correct
   when intermediate boundaries are not selected, so the same sets serve
   every decomposition the dynamic program considers.  This module adds
   what the code generator needs per segment: its externs and reduction
   state, the first consumer of an item, and the pinned segments. *)

open Lang
module S = Set.Make (String)

type seg_info = {
  si_seg : Boundary.segment;
  si_gen : Varset.t;
  si_cons : Varset.t;
  si_externs : S.t;          (* extern functions the segment calls *)
  si_reduc_state : S.t;      (* reduction globals this segment touches *)
}

type t = {
  prog : Ast.program;
  segs : seg_info array;
  (* reqcomm.(i) = values entering segment i, i.e. crossing boundary b_i;
     reqcomm.(0) is the data the first filter receives from nowhere and is
     empty by construction apart from the packet index. *)
  reqcomm : Varset.t array;
  reduc : S.t;  (* reduction globals: persistent filter state *)
}

let reduction_globals (prog : Ast.program) =
  List.filter_map
    (fun g ->
      match g.Ast.gd_ty with
      | Ast.Tclass c when Ast.is_reduction_class prog c -> Some g.Ast.gd_name
      | _ -> None)
    prog.Ast.globals
  |> S.of_list

let analyze (prog : Ast.program) : t =
  let segments = Boundary.segments_of_body prog.Ast.pipeline.Ast.pd_body in
  let gen_cons, reqcomm = Bgraph.reqcomm prog (Bgraph.chain segments) in
  let reduc = reduction_globals prog in
  let bases vs =
    Varset.fold (fun item acc -> S.add (Varset.base item) acc) vs S.empty
  in
  let segs =
    List.map2
      (fun (seg : Boundary.segment) (gen, cons) ->
        {
          si_seg = seg;
          si_gen = gen;
          si_cons = cons;
          si_externs = Gencons.externs_called prog seg.Boundary.seg_stmts;
          si_reduc_state = S.inter (S.union (bases gen) (bases cons)) reduc;
        })
      segments (Array.to_list gen_cons)
    |> Array.of_list
  in
  { prog; segs; reqcomm; reduc }

(* Values crossing boundary b_i (between segment i-1 and segment i),
   1-based like the paper; [reqcomm_into t 0] is the input of the first
   filter. *)
let reqcomm_into t i = t.reqcomm.(i)

let segment_count t = Array.length t.segs

let segments t = Array.to_list (Array.map (fun si -> si.si_seg) t.segs)

(* The first segment that consumes each item after boundary [i]: used by
   the packing phase to choose instance-wise vs field-wise layout (§5). *)
let first_consumer t i item =
  let n = Array.length t.segs in
  let rec go j =
    if j >= n then None
    else if Varset.mem item t.segs.(j).si_cons then Some j
    else if Varset.mem item t.segs.(j).si_gen then None (* redefined first *)
    else go (j + 1)
  in
  go i

(* Segments whose extern calls appear in [names] must be pinned: data
   sources to the first computing unit, result sinks to the last. *)
let segments_calling t names =
  Array.to_list t.segs
  |> List.filter_map (fun si ->
         if S.exists (fun e -> S.mem e names) si.si_externs then
           Some si.si_seg.Boundary.seg_index
         else None)

let pp ppf t =
  Array.iteri
    (fun i si ->
      Fmt.pf ppf "boundary b%d: %a@\n" i Varset.pp t.reqcomm.(i);
      Fmt.pf ppf "  %a: gen=%a cons=%a@\n" Boundary.pp_segment si.si_seg
        Varset.pp si.si_gen Varset.pp si.si_cons)
    t.segs;
  Fmt.pf ppf "boundary b%d (end): %a@\n" (Array.length t.segs) Varset.pp
    t.reqcomm.(Array.length t.segs)
