(* Conservative alias information for the Gen/Cons analysis.

   Figure 2 of the paper assumes "(potentially conservative) alias
   information is available": updating Gen uses must-alias information (a
   value joins Gen only if it is definitely defined), updating Cons uses
   may-alias information (anything potentially read joins Cons).

   PipeLang aliases arise from reference assignments between object or
   collection variables ([P q = t;], [q = r;]) — fields and array
   elements of class type can also hold references, which we fold into
   one conservative equivalence.  This module computes, per code segment,
   the may-alias classes of base variables by unioning every pair that
   appears in a reference assignment anywhere in the segment.  An escape
   mark belongs to a whole class and moves with it on a union, so the
   classes do not depend on the order the statements are visited in (flow
   insensitive, hence sound for may-information).  A variable is
   must-unaliased when its class is a singleton that never escaped.  The
   walk itself is [Ast.sub_exprs]/[Ast.stmt_parts]; only reference
   assignment and escape are matched here. *)

open Lang
module SM = Map.Make (String)
module SS = Set.Make (String)

type t = {
  (* union-find parent map over variable names *)
  mutable parent : string SM.t;
  (* roots of the classes whose references escaped into a structure
     (array/list element or object field of class type): conservatively
     alias each other *)
  mutable escaped : SS.t;
}

let create () = { parent = SM.empty; escaped = SS.empty }

let rec find t v =
  match SM.find_opt v t.parent with
  | None | Some "" -> v
  | Some p when p = v -> v
  | Some p ->
      let r = find t p in
      t.parent <- SM.add v r t.parent;
      r

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    t.parent <- SM.add ra rb t.parent;
    if SS.mem ra t.escaped then t.escaped <- SS.add rb t.escaped
  end

let mark_escaped t v = t.escaped <- SS.add (find t v) t.escaped

(* Do [a] and [b] possibly refer to the same object? *)
let may_alias t a b =
  if a = b then true
  else begin
    let ra = find t a and rb = find t b in
    ra = rb
    || (SS.mem ra t.escaped && SS.mem rb t.escaped)
  end

(* Is [v] definitely the only name for its object within the segment?
   True when nothing was ever unioned with it and it never escaped. *)
let unaliased t v =
  let r = find t v in
  (not (SS.mem r t.escaped))
  && SM.for_all (fun v' p -> v' = v || (p <> r && find t v' <> r)) t.parent
  && not (SM.mem v t.parent && find t v <> v)

(* --- collection over a statement list ---------------------------------- *)

(* [is_ref v] says whether [v] names a reference (class, list or array).
   Calls introduce no names: the interprocedural Gen/Cons pass renames
   formals to the actual bases. *)
let rec scan_expr t ~is_ref (e : Ast.expr) =
  (match e.Ast.e with
  | Ast.Emethod ({ Ast.e = Ast.Evar _; _ }, _, [ { Ast.e = Ast.Evar v; _ } ])
    when is_ref v ->
      (* list.add(x) stores a reference to x in the collection *)
      mark_escaped t v
  | _ -> ());
  List.iter (scan_expr t ~is_ref) (Ast.sub_exprs e)

let rec scan_stmt t ~is_ref (st : Ast.stmt) =
  (match st.Ast.s with
  | Ast.Sdecl (_, name, Some { Ast.e = Ast.Evar src; _ }) when is_ref src ->
      (* [P q = t;] — a new name for t's object *)
      union t name src
  | Ast.Sassign (Ast.Lvar dst, { Ast.e = Ast.Evar src; _ })
    when is_ref src || is_ref dst ->
      union t dst src
  | Ast.Sassign ((Ast.Lfield _ | Ast.Lindex _), { Ast.e = Ast.Evar v; _ })
    when is_ref v ->
      (* storing a reference into a field or element lets it escape *)
      mark_escaped t v
  | _ -> ());
  let es, ss = Ast.stmt_parts st in
  List.iter (scan_expr t ~is_ref) es;
  List.iter (scan_stmt t ~is_ref) ss

(* Alias information for one code segment.  [is_ref v] should say whether
   [v] names a reference (class, list or array typed) variable. *)
let of_stmts ~is_ref (stmts : Ast.stmt list) : t =
  let t = create () in
  List.iter (scan_stmt t ~is_ref) stmts;
  t
