(** The candidate filter boundary graph (§4.1) and the one ReqComm
    propagation (§4.2).

    Nodes are candidate boundaries plus a pre-dominating start node and a
    post-dominating end node; edges carry the code between adjacent
    boundaries.  After loop fission the graph is acyclic; a conditional
    whose branches contain candidate boundaries forks it, and a flow path
    is any start-to-end path.  Both the compiler's chain ({!chain}, which
    {!Reqcomm} analyzes) and the general DAG ({!build}) glue statements
    into atomic filters with {!Boundary.segments_of_stmts}. *)

open Lang

type edge = {
  e_src : int;
  e_dst : int;
  e_code : Ast.stmt list;  (** the atomic filter on this edge *)
  e_label : string;
}

type t = {
  n_nodes : int;
  start : int;
  stop : int;
  edges : edge list;
}

val out_edges : t -> int -> edge list

(** The compiler's atomic filters laid end to end, conditionals kept
    atomic: node [i] is boundary b_i and edge [i] carries segment [i]. *)
val chain : Boundary.segment list -> t

(** Build the graph of a pipelined body (loop fission is applied
    first).  Conditionals whose branches contain candidate boundaries
    become fork/join diamonds; the guard expression travels with both
    branch edges.  Without such conditionals the edges are
    {!Boundary.segments_of_body}'s segments. *)
val build : Ast.stmt list -> t

(** All start-to-end paths. *)
val flow_paths : t -> edge list list

(** ReqComm by one backward propagation in reverse topological order:
    each edge's (Gen, Cons), in [edges] order, and the values required
    at every node.  At a fork a value is required if any outgoing path
    requires it.  Globals never cross a boundary: reduction globals are
    persistent filter state merged at finalize, the others run-time
    configuration. *)
val reqcomm : Ast.program -> t -> (Varset.t * Varset.t) array * Varset.t array

(** No forks: the shape the code generator supports. *)
val is_chain : t -> bool
