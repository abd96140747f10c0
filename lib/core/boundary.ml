(* Candidate filter boundary selection and loop fission (§4.1).

   The compiler considers three kinds of candidate filter boundaries:
   start/end of a foreach loop, a conditional statement, and start/end of
   a function call.  Any non-foreach loop must live entirely inside one
   filter.  If candidate boundaries would fall inside a foreach loop, the
   loop is fissioned into consecutive foreach loops first, so that
   boundaries only separate whole top-level statements.

   The result of this phase is the list of *atomic filters* f_1 .. f_{n+1}
   (called segments here) separated by the n candidate boundaries
   b_1 .. b_n of the decomposition algorithm (§4.4).  Because conditionals
   are kept atomic, the candidate filter boundary graph is a chain; the
   general DAG interface lives in [Bgraph]. *)

open Lang

type segment = {
  seg_index : int;           (* position in f_1 .. f_{n+1} *)
  seg_stmts : Ast.stmt list; (* top-level statements of this atomic filter *)
  seg_label : string;        (* human-readable description *)
}

let pp_segment ppf s =
  Fmt.pf ppf "f%d(%s)" (s.seg_index + 1) s.seg_label

(* ------------------------------------------------------------------ *)
(* Base-variable def/use, used to decide fission legality.              *)
(* ------------------------------------------------------------------ *)

module S = Set.Make (String)

let rec expr_uses (e : Ast.expr) acc =
  match e.Ast.e with
  | Ast.Evar v -> S.add v acc
  | _ -> List.fold_left (fun acc e -> expr_uses e acc) acc (Ast.sub_exprs e)

let rec lvalue_uses (l : Ast.lvalue) acc =
  (* indices and intermediate receivers of an lvalue are read *)
  match l with
  | Ast.Lvar _ -> acc
  | Ast.Lfield (l, _) -> lvalue_uses_full l acc
  | Ast.Lindex (l, i) -> lvalue_uses_full l (expr_uses i acc)

and lvalue_uses_full l acc =
  match l with
  | Ast.Lvar v -> S.add v acc
  | Ast.Lfield (l, _) -> lvalue_uses_full l acc
  | Ast.Lindex (l, i) -> lvalue_uses_full l (expr_uses i acc)

(* uses, declared variables, and written base variables of a statement *)
let rec stmt_def_use (st : Ast.stmt) =
  match st.Ast.s with
  | Ast.Sdecl (_, name, init) ->
      let uses =
        match init with None -> S.empty | Some e -> expr_uses e S.empty
      in
      (uses, S.singleton name, S.empty)
  | Ast.Sassign (l, e) ->
      let uses = expr_uses e (lvalue_uses l S.empty) in
      let uses =
        (* writing through a field or index also reads the base object *)
        match l with Ast.Lvar _ -> uses | _ -> S.add (Ast.lvalue_base l) uses
      in
      (uses, S.empty, S.singleton (Ast.lvalue_base l))
  | Ast.Supdate (l, _, e) ->
      let base = Ast.lvalue_base l in
      let uses = S.add base (expr_uses e (lvalue_uses l S.empty)) in
      (uses, S.empty, S.singleton base)
  | Ast.Sif (c, th, el) ->
      let u0 = expr_uses c S.empty in
      let u1, _, w1 = stmts_def_use th in
      let u2, _, w2 = stmts_def_use el in
      (S.union u0 (S.union u1 u2), S.empty, S.union w1 w2)
  | Ast.Sfor (init, cond, step, body) ->
      let u0, d0, w0 = stmt_def_use init in
      let u1 = expr_uses cond S.empty in
      let u2, _, w2 = stmt_def_use step in
      let u3, _, w3 = stmts_def_use body in
      let inner = S.union u1 (S.union u2 u3) in
      ( S.union u0 (S.diff inner d0),
        S.empty,
        S.diff (S.union w0 (S.union w2 w3)) d0 )
  | Ast.Swhile (c, body) ->
      let u0 = expr_uses c S.empty in
      let u1, _, w1 = stmts_def_use body in
      (S.union u0 u1, S.empty, w1)
  | Ast.Sforeach { fe_var; fe_coll; fe_where; fe_body } ->
      let u0 = expr_uses fe_coll S.empty in
      let u0 =
        match fe_where with None -> u0 | Some w -> expr_uses w u0
      in
      let u1, _, w1 = stmts_def_use fe_body in
      ( S.union u0 (S.remove fe_var u1),
        S.empty,
        S.remove fe_var w1 )
  | Ast.Sexpr e -> (expr_uses e S.empty, S.empty, S.empty)
  | Ast.Sreturn None | Ast.Sbreak | Ast.Scontinue -> (S.empty, S.empty, S.empty)
  | Ast.Sreturn (Some e) -> (expr_uses e S.empty, S.empty, S.empty)
  | Ast.Sblock body -> stmts_def_use body

and stmts_def_use stmts =
  (* sequential composition: uses not satisfied by earlier decls *)
  List.fold_left
    (fun (u, d, w) st ->
      let u', d', w' = stmt_def_use st in
      (S.union u (S.diff u' d), S.union d d', S.union w (S.diff w' d)))
    (S.empty, S.empty, S.empty) stmts

(* Method calls may mutate their receiver wherever they appear — as a
   statement, in a declaration's initializer, in an lvalue index, or nested
   inside another expression — and a callee may mutate the variables it is
   passed.  Collect every such variable. *)
let rec expr_receivers (e : Ast.expr) acc =
  let acc =
    match e.Ast.e with
    | Ast.Emethod (recv, _, _) -> expr_uses recv acc
    | Ast.Ecall (_, args) ->
        List.fold_left
          (fun acc (a : Ast.expr) ->
            match a.Ast.e with Ast.Evar v -> S.add v acc | _ -> acc)
          acc args
    | _ -> acc
  in
  List.fold_left (fun acc e -> expr_receivers e acc) acc (Ast.sub_exprs e)

let rec stmt_writes_receiver (st : Ast.stmt) =
  let es, ss = Ast.stmt_parts st in
  List.fold_left
    (fun acc st -> S.union acc (stmt_writes_receiver st))
    (List.fold_left (fun acc e -> expr_receivers e acc) S.empty es)
    ss

(* ------------------------------------------------------------------ *)
(* Loop fission                                                        *)
(* ------------------------------------------------------------------ *)

(* Split the body of a top-level foreach at every legal point.  A split
   between body statements i-1 and i is legal iff
   - no variable declared before the split is used at or after it (we do
     not promote scalar temporaries to per-element fields), and
   - no outer variable written before the split (including method-call
     receivers) is read after it within the same original loop body
     (cross-piece flow through outer state would reorder element-wise
     updates across the whole collection). *)
let foreach_split_points (fe : Ast.foreach) =
  let stmts = Array.of_list fe.Ast.fe_body in
  let n = Array.length stmts in
  let infos =
    Array.map
      (fun st ->
        let u, d, w = stmt_def_use st in
        (u, d, S.union w (stmt_writes_receiver st)))
      stmts
  in
  let points = ref [] in
  for i = 1 to n - 1 do
    let decls_before = ref S.empty in
    let writes_before = ref S.empty in
    for j = 0 to i - 1 do
      let _, d, w = infos.(j) in
      decls_before := S.union !decls_before d;
      writes_before := S.union !writes_before (S.diff w d)
    done;
    let uses_after = ref S.empty in
    for j = i to n - 1 do
      let u, _, _ = infos.(j) in
      uses_after := S.union !uses_after u
    done;
    let crossing_locals = S.inter !decls_before !uses_after in
    let outer_flow =
      S.inter (S.remove fe.Ast.fe_var !writes_before) !uses_after
    in
    if S.is_empty crossing_locals && S.is_empty outer_flow then
      points := i :: !points
  done;
  List.rev !points

(* Fission one foreach into consecutive foreach loops at the given split
   points (ascending positions into its body). *)
let fission_foreach loc (fe : Ast.foreach) points =
  let stmts = Array.of_list fe.Ast.fe_body in
  let pieces =
    let rec cut start = function
      | [] -> [ Array.to_list (Array.sub stmts start (Array.length stmts - start)) ]
      | p :: rest -> Array.to_list (Array.sub stmts start (p - start)) :: cut p rest
    in
    cut 0 points
  in
  List.map
    (fun body ->
      Ast.mk_stmt ~loc
        (Ast.Sforeach { fe with Ast.fe_body = body }))
    pieces

(* Fission every top-level foreach of the pipelined body. *)
let fission_body (body : Ast.stmt list) : Ast.stmt list =
  List.concat_map
    (fun st ->
      match st.Ast.s with
      | Ast.Sforeach fe -> (
          match foreach_split_points fe with
          | [] -> [ st ]
          | points -> fission_foreach st.Ast.sloc fe points)
      | _ -> [ st ])
    body

(* ------------------------------------------------------------------ *)
(* Segmentation into atomic filters                                     *)
(* ------------------------------------------------------------------ *)

let label_of_stmt (st : Ast.stmt) =
  match st.Ast.s with
  | Ast.Sforeach { fe_coll; _ } ->
      Printf.sprintf "foreach %s" (Pretty.expr_to_string fe_coll)
  | Ast.Sif (c, _, _) -> Printf.sprintf "if %s" (Pretty.expr_to_string c)
  | Ast.Sexpr { e = Ast.Emethod (_, m, _); _ } -> Printf.sprintf "call %s" m
  | Ast.Sexpr { e = Ast.Ecall (f, _); _ } -> Printf.sprintf "call %s" f
  | Ast.Sfor _ -> "for"
  | Ast.Swhile _ -> "while"
  | _ -> "stmts"

(* Is this statement one at which the paper allows a boundary (a
   boundary-worthy segment head)?  foreach loops, conditionals, loops
   (which must be wholly contained, hence atomic), call statements, and
   declarations/assignments whose right-hand side is a (non-builtin)
   function call — the "start and end of a function call" candidates. *)
let is_call_rhs (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Ecall (f, _) -> not (Typecheck.is_builtin f)
  | Ast.Emethod _ -> true
  | _ -> false

let boundary_worthy (st : Ast.stmt) =
  match st.Ast.s with
  | Ast.Sforeach _ | Ast.Sif _ | Ast.Sfor _ | Ast.Swhile _ -> true
  | Ast.Sexpr { e = Ast.Emethod _; _ } -> true
  | Ast.Sexpr { e = Ast.Ecall (f, _); _ } -> not (Typecheck.is_builtin f)
  | Ast.Sdecl (_, _, Some e) | Ast.Sassign (_, e) -> is_call_rhs e
  | _ -> false

(* Partition the (already fissioned) top-level statements into segments.
   Plain statements (declarations, scalar assignments) carry no candidate
   boundary and are glued onto the following boundary-worthy statement;
   trailing plain statements form a final segment. *)
let segments_of_stmts (body : Ast.stmt list) : segment list =
  let segs = ref [] in
  let pending = ref [] in
  let push stmts label =
    segs := (stmts, label) :: !segs
  in
  List.iter
    (fun st ->
      if boundary_worthy st then begin
        push (List.rev (st :: !pending)) (label_of_stmt st);
        pending := []
      end
      else pending := st :: !pending)
    body;
  if !pending <> [] then push (List.rev !pending) "tail";
  List.rev !segs
  |> List.mapi (fun i (stmts, label) ->
         { seg_index = i; seg_stmts = stmts; seg_label = label })

(* Full phase: fission then segment. *)
let segments_of_body (body : Ast.stmt list) : segment list =
  segments_of_stmts (fission_body body)
