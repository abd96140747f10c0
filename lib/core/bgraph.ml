(* The candidate filter boundary graph (§4.1) and ReqComm over it (§4.2).

   Nodes are candidate filter boundaries plus a start node that
   pre-dominates and an end node that post-dominates everything; an edge
   connects two adjacent boundaries and carries the code between them.
   After loop fission the graph is acyclic; a conditional whose branches
   contain candidate boundaries forks the graph, and a *flow path* is any
   start-to-end path.

   Both shapes come from one glue rule, [Boundary.segments_of_stmts]:
   [chain] lays the compiler's atomic filters end to end (conditionals
   kept atomic, DESIGN.md restriction 6), and [build] forks at the
   conditionals that contain candidate boundaries.  ReqComm is one
   backward propagation over either; at a fork a value is required if
   any outgoing path requires it (may-information, hence the union). *)

open Lang
module S = Set.Make (String)

type edge = {
  e_src : int;
  e_dst : int;
  e_code : Ast.stmt list;  (* the atomic filter on this edge *)
  e_label : string;
}

type t = {
  n_nodes : int;
  start : int;
  stop : int;
  edges : edge list;
}

let out_edges g n = List.filter (fun e -> e.e_src = n) g.edges
let in_edges g n = List.filter (fun e -> e.e_dst = n) g.edges

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* Node i is boundary b_i; edge i carries segment i. *)
let chain (segments : Boundary.segment list) : t =
  let n1 = List.length segments in
  {
    n_nodes = n1 + 1;
    start = 0;
    stop = n1;
    edges =
      List.map
        (fun (s : Boundary.segment) ->
          {
            e_src = s.Boundary.seg_index;
            e_dst = s.Boundary.seg_index + 1;
            e_code = s.Boundary.seg_stmts;
            e_label = s.Boundary.seg_label;
          })
        segments;
  }

(* Does a statement list contain any boundary-worthy statement (so that a
   conditional around it must fork the graph rather than stay atomic)? *)
let rec contains_boundary stmts =
  List.exists
    (fun (st : Ast.stmt) ->
      Boundary.boundary_worthy st
      ||
      match st.Ast.s with
      | Ast.Sblock body -> contains_boundary body
      | _ -> false)
    stmts

(* Build the graph of a pipelined body (fission is applied first).  A
   statement list is laid between [src] and [dst] as the chain of its
   atomic filters; a filter ending in a conditional with boundaries in
   its branches becomes a fork/join diamond instead.  Its plain prefix
   leads to the fork, and the guard evaluation travels with both branch
   edges (each branch is entered only when the packet takes that path),
   encoded as a marker statement so analyses see the condition's uses. *)
let build (body : Ast.stmt list) : t =
  let next = ref 2 and edges = ref [] in
  let fresh () =
    incr next;
    !next - 1
  in
  let add src dst code label =
    edges := { e_src = src; e_dst = dst; e_code = code; e_label = label } :: !edges
  in
  let rec lay src dst stmts =
    let rec go src = function
      | [] -> if src <> dst then add src dst [] "(empty)"
      | (seg : Boundary.segment) :: rest -> (
          let nxt () = if rest = [] then dst else fresh () in
          match List.rev seg.Boundary.seg_stmts with
          | { Ast.s = Ast.Sif (cond, th, el); _ } :: pre
            when contains_boundary th || contains_boundary el ->
              let fork =
                if pre = [] then src
                else begin
                  let n = fresh () in
                  add src n (List.rev pre) "pre-branch";
                  n
                end
              in
              let join = nxt () in
              let guard = Ast.mk_stmt (Ast.Sexpr cond) in
              lay fork join (guard :: th);
              lay fork join (guard :: el);
              go join rest
          | _ ->
              let n = nxt () in
              add src n seg.Boundary.seg_stmts seg.Boundary.seg_label;
              go n rest)
    in
    go src (Boundary.segments_of_stmts stmts)
  in
  lay 0 1 (Boundary.fission_body body);
  { n_nodes = !next; start = 0; stop = 1; edges = List.rev !edges }

(* ------------------------------------------------------------------ *)
(* Flow paths                                                           *)
(* ------------------------------------------------------------------ *)

(* All start-to-end paths (the graph is acyclic by construction). *)
let flow_paths (g : t) : edge list list =
  let rec go node =
    if node = g.stop then [ [] ]
    else
      List.concat_map
        (fun e -> List.map (fun rest -> e :: rest) (go e.e_dst))
        (out_edges g node)
  in
  go g.start

(* ------------------------------------------------------------------ *)
(* ReqComm over the graph                                               *)
(* ------------------------------------------------------------------ *)

(* Reverse topological order of nodes (Kahn on reversed edges). *)
let reverse_topo (g : t) : int list =
  let out_deg = Array.make g.n_nodes 0 in
  List.iter (fun e -> out_deg.(e.e_src) <- out_deg.(e.e_src) + 1) g.edges;
  let ready = Queue.create () in
  for n = 0 to g.n_nodes - 1 do
    if out_deg.(n) = 0 then Queue.push n ready
  done;
  let order = ref [] in
  while not (Queue.is_empty ready) do
    let n = Queue.pop ready in
    order := n :: !order;
    List.iter
      (fun e ->
        out_deg.(e.e_src) <- out_deg.(e.e_src) - 1;
        if out_deg.(e.e_src) = 0 then Queue.push e.e_src ready)
      (in_edges g n)
  done;
  List.rev !order

(* R(end) = {}; an edge e contributes (R(dst e) - Gen(e)) + Cons(e),
   where Cons leaves out every global: reduction globals (classes
   implementing Reducinterface) are persistent filter state whose
   per-copy partials merge at finalize, and the other globals are
   run-time configuration broadcast at startup.  Gen/Cons are computed
   once per edge, in [g.edges] order. *)
let reqcomm (prog : Ast.program) (g : t) =
  let ctx =
    Gencons.create_ctx prog
      (List.concat_map (fun e -> e.e_code) g.edges)
  in
  let gen_cons =
    List.map (fun e -> (e, Gencons.analyze_segment ctx e.e_code)) g.edges
  in
  let globals =
    S.of_list (List.map (fun gd -> gd.Ast.gd_name) prog.Ast.globals)
  in
  let r = Array.make g.n_nodes Varset.empty in
  List.iter
    (fun n ->
      List.iter
        (fun (e, (gen, cons)) ->
          if e.e_src = n then
            (* [Varset.union] folds its second argument into the first:
               a node with one out-edge takes the contribution as is *)
            r.(n) <-
              Varset.union
                (Varset.union (Varset.diff r.(e.e_dst) gen)
                   (Varset.filter
                      (fun it -> not (S.mem (Varset.base it) globals))
                      cons))
                r.(n))
        gen_cons)
    (reverse_topo g);
  (Array.of_list (List.map snd gen_cons), r)

(* A chain graph (no forks) is what the code generator supports. *)
let is_chain (g : t) =
  List.for_all (fun n -> List.length (out_edges g n) <= 1)
    (List.init g.n_nodes (fun i -> i))
