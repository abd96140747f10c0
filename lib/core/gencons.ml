(* One-pass Gen/Cons analysis (Figure 2 of the paper).

   For the code segment [b] between two consecutive candidate filter
   boundaries the analysis computes:
   - Gen(b):  values defined in [b] (must-information), and
   - Cons(b): values used in [b] but not defined in it (may-information).

   Statements are traversed in reverse order.  For an assignment the
   target joins Gen and leaves Cons, and the used values join Cons.  A
   conditional contributes its Cons but never its Gen.  A loop body is
   analyzed separately; accesses indexed by a function of the loop index
   are widened to rectilinear sections derived from the loop bounds, and
   (under the paper's ">= 1 iteration" assumption) the body's Gen joins
   the segment's Gen.  The analysis is applied interprocedurally and
   context-sensitively: every call site re-analyzes the callee with
   formals renamed to the actuals.

   Value granularity (see [Varset]): scalars are whole items; objects and
   collection elements are tracked per field, which is what the packing
   phase (§5) needs. *)

open Lang
module S = Set.Make (String)

type vkind =
  | Kscalar                (* int/float/bool/string/rectdomain *)
  | Kobj of string * string  (* object variable: base name, class *)
  | Kelem of string * string (* element of collection [base] of class *)
  | Kelem_prim of string     (* element of a collection of primitives *)
  | Kcoll of string * Ast.ty (* collection: base name, element type *)
  | Karr of string           (* array variable *)
  | Kopaque

type sets = { mutable gen : Varset.t; mutable cons : Varset.t }

(* One enclosing counted loop: index variable and its [lo, hi) bounds. *)
type loop_ctx = { li_var : string; li_lo : Section.bound; li_hi : Section.bound }

type ctx = {
  prog : Ast.program;
  outer_kinds : (string * vkind) list; (* globals, packet var, and every
                                          top-level declaration of the
                                          pipelined body *)
  mutable visiting : string list;      (* call-stack guard for recursion *)
  mutable cur_aliases : Alias.t option;
      (* may-alias classes of the segment under analysis: writes through
         a possibly-aliased reference must not claim a must-definition *)
}

(* The primitive-element pseudo-field for List<int>/List<float>. *)
let prim_field = "$val"

(* --- kinds ------------------------------------------------------------ *)

let kind_of_ty name (ty : Ast.ty) =
  match ty with
  | Ast.Tint | Ast.Tfloat | Ast.Tbool | Ast.Tstring | Ast.Tvoid
  | Ast.Trectdomain ->
      Kscalar
  | Ast.Tclass c -> Kobj (name, c)
  | Ast.Tlist elt -> Kcoll (name, elt)
  | Ast.Tarray _ -> Karr name

let class_fields prog cname =
  match Ast.find_class prog cname with
  | Some cd -> List.map snd cd.Ast.cd_fields
  | None -> []

(* Kind environment: innermost bindings first. *)
(* Whole-variable definitions are always must; writes through a
   reference are must only when the reference is provably unaliased. *)
let must_write ctx name =
  match ctx.cur_aliases with
  | None -> true
  | Some a -> Alias.unaliased a name

let lookup_kind ctx kenv name =
  match List.assoc_opt name kenv with
  | Some k -> k
  | None -> (
      match List.assoc_opt name ctx.outer_kinds with
      | Some k -> k
      | None -> Kopaque)

(* --- item construction ------------------------------------------------ *)

(* All items describing the full contents of a variable of kind [k]. *)
let items_of_whole ctx k =
  match k with
  | Kscalar -> []
  | Kobj (base, cls) ->
      List.map (fun f -> Varset.ElemField (base, f)) (class_fields ctx.prog cls)
  | Kelem (base, cls) ->
      List.map (fun f -> Varset.ElemField (base, f)) (class_fields ctx.prog cls)
  | Kelem_prim base -> [ Varset.ElemField (base, prim_field) ]
  | Kcoll (base, Ast.Tclass cls) ->
      Varset.Coll base
      :: List.map (fun f -> Varset.ElemField (base, f)) (class_fields ctx.prog cls)
  | Kcoll (base, _) -> [ Varset.Coll base; Varset.ElemField (base, prim_field) ]
  | Karr base -> [ Varset.Arr (base, Section.Whole) ]
  | Kopaque -> []

let items_of_var ctx kenv name =
  match lookup_kind ctx kenv name with
  | Kscalar | Kopaque -> [ Varset.Var name ]
  | k -> items_of_whole ctx k

(* --- sections from index expressions ---------------------------------- *)

let bound_of_expr (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Eint n -> Some (Section.Bconst n)
  | Ast.Evar v -> Some (Section.Bsym v)
  | Ast.Eruntime_define n -> Some (Section.Bsym ("runtime:" ^ n))
  | _ -> None

let bound_add b k =
  match b with
  | Section.Bconst n -> Section.Bconst (n + k)
  | Section.Bsym s -> if k = 0 then Section.Bsym s else Section.Bsym_off (s, k)
  | Section.Bsym_off (s, n) ->
      if n + k = 0 then Section.Bsym s else Section.Bsym_off (s, n + k)

(* Section touched by index expression [e] under the enclosing counted
   loops; [Whole] when not an affine function of a loop index. *)
let section_of_index loops (e : Ast.expr) =
  let of_var v =
    match List.find_opt (fun l -> l.li_var = v) loops with
    | Some l -> Some (Section.Range (l.li_lo, l.li_hi))
    | None -> None
  in
  match e.Ast.e with
  | Ast.Eint n -> Section.Range (Section.Bconst n, Section.Bconst (n + 1))
  | Ast.Evar v -> (
      match of_var v with
      | Some s -> s
      | None ->
          Section.Range (Section.Bsym v, Section.Bsym_off (v, 1)))
  | Ast.Ebinop (Ast.Add, { e = Ast.Evar v; _ }, { e = Ast.Eint k; _ })
  | Ast.Ebinop (Ast.Add, { e = Ast.Eint k; _ }, { e = Ast.Evar v; _ }) -> (
      match of_var v with
      | Some (Section.Range (lo, hi)) ->
          Section.Range (bound_add lo k, bound_add hi k)
      | _ -> Section.Whole)
  | Ast.Ebinop (Ast.Sub, { e = Ast.Evar v; _ }, { e = Ast.Eint k; _ }) -> (
      match of_var v with
      | Some (Section.Range (lo, hi)) ->
          Section.Range (bound_add lo (-k), bound_add hi (-k))
      | _ -> Section.Whole)
  | _ -> Section.Whole

(* --- set updates (reverse traversal) ----------------------------------- *)

let add_gen sets items =
  List.iter
    (fun i ->
      sets.gen <- Varset.add i sets.gen;
      sets.cons <- Varset.remove i sets.cons)
    items

let add_cons sets items =
  List.iter (fun i -> sets.cons <- Varset.add i sets.cons) items

(* Merge the sets of a composite statement [s] (loop body, callee) into the
   enclosing segment's sets, per Figure 2's loop rule:
   Cons(b) := (Cons(b) - Gen(s)) + Cons(s);  Gen(b) := Gen(b) + Gen(s). *)
let merge_composite sets ~gen_s ~cons_s ~keep_gen =
  if keep_gen then begin
    sets.cons <- Varset.diff sets.cons gen_s;
    sets.gen <- Varset.union sets.gen gen_s
  end;
  sets.cons <- Varset.union sets.cons cons_s

(* Every name a statement list declares, nested scopes included. *)
let rec collect_decls stmts =
  List.concat_map
    (fun (st : Ast.stmt) ->
      (match st.Ast.s with
      | Ast.Sdecl (_, name, _) -> [ name ]
      | Ast.Sforeach fe -> [ fe.Ast.fe_var ]
      | _ -> [])
      @ collect_decls (snd (Ast.stmt_parts st)))
    stmts

(* Items of [s] not rooted at one of [locals]. *)
let drop_private ~locals s =
  let locals = S.of_list locals in
  let keep item = not (S.mem (Varset.base item) locals) in
  (Varset.filter keep s.gen, Varset.filter keep s.cons)

(* ------------------------------------------------------------------ *)
(* Expression uses                                                     *)
(* ------------------------------------------------------------------ *)

let rec cons_expr ctx kenv loops sets (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Evar v -> add_cons sets (items_of_var ctx kenv v)
  | Ast.Efield (o, f) -> cons_field ctx kenv loops sets o f
  | Ast.Eindex (a, i) ->
      cons_expr ctx kenv loops sets i;
      (match a.Ast.e with
      | Ast.Evar v -> (
          match lookup_kind ctx kenv v with
          | Karr base ->
              add_cons sets [ Varset.Arr (base, section_of_index loops i) ]
          | _ -> add_cons sets (items_of_var ctx kenv v))
      | _ -> cons_expr ctx kenv loops sets a)
  | Ast.Ecall (f, args) ->
      analyze_call ctx kenv loops sets ~fname:f ~recv:None ~args
  | Ast.Emethod (o, m, args) -> analyze_method ctx kenv loops sets o m args
  | _ -> List.iter (cons_expr ctx kenv loops sets) (Ast.sub_exprs e)

and cons_field ctx kenv loops sets (o : Ast.expr) f =
  match o.Ast.e with
  | Ast.Evar v -> (
      match lookup_kind ctx kenv v with
      | Kobj (base, _) | Kelem (base, _) ->
          add_cons sets [ Varset.ElemField (base, f) ]
      | Karr base when f = "length" ->
          (* array length is collection structure, approximate by a
             zero-width section read *)
          add_cons sets [ Varset.Arr (base, Section.Range (Section.Bconst 0, Section.Bconst 0)) ]
      | _ -> add_cons sets (items_of_var ctx kenv v))
  | _ -> cons_expr ctx kenv loops sets o

(* ------------------------------------------------------------------ *)
(* Calls (interprocedural, context-sensitive)                           *)
(* ------------------------------------------------------------------ *)

(* Kind a formal receives from an actual argument expression. *)
and kind_of_actual ctx kenv (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Evar v -> (
      match lookup_kind ctx kenv v with
      | Kscalar -> None (* by-value; handled by cons at the call site *)
      | Kopaque -> None
      | k -> Some k)
  | _ -> None

and analyze_call ctx kenv loops sets ~fname ~recv ~args =
  match Ast.find_func ctx.prog fname with
  | Some fd -> analyze_user_call ctx kenv loops sets fd ~recv ~args
  | None ->
      (* builtin or extern: all arguments are consumed by value *)
      List.iter (cons_expr ctx kenv loops sets) args

and analyze_method ctx kenv loops sets recv m args =
  match recv.Ast.e with
  | Ast.Evar v -> (
      match lookup_kind ctx kenv v with
      | Kcoll (base, elt_ty) -> analyze_list_method ctx kenv loops sets base elt_ty m args
      | Kobj (_, cls) | Kelem (_, cls) -> (
          match Ast.find_class ctx.prog cls with
          | Some cd -> (
              match Ast.find_method cd m with
              | Some md ->
                  analyze_user_call ctx kenv loops sets md ~recv:(Some recv) ~args
              | None -> List.iter (cons_expr ctx kenv loops sets) args)
          | None -> List.iter (cons_expr ctx kenv loops sets) args)
      | _ ->
          cons_expr ctx kenv loops sets recv;
          List.iter (cons_expr ctx kenv loops sets) args)
  | _ ->
      cons_expr ctx kenv loops sets recv;
      List.iter (cons_expr ctx kenv loops sets) args

and analyze_list_method ctx kenv loops sets base elt_ty m args =
  match m with
  | "add" -> (
      (* adding an element defines the collection's structure and (for
         object elements) all element fields; the added value's fields are
         consumed (and typically resolved within the segment) *)
      if must_write ctx base then add_gen sets [ Varset.Coll base ];
      match (elt_ty, args) with
      | Ast.Tclass cls, [ a ] ->
          if must_write ctx base then
            add_gen sets
              (List.map
                 (fun f -> Varset.ElemField (base, f))
                 (class_fields ctx.prog cls));
          cons_expr ctx kenv loops sets a
      | _, [ a ] ->
          if must_write ctx base then
            add_gen sets [ Varset.ElemField (base, prim_field) ];
          cons_expr ctx kenv loops sets a
      | _ -> List.iter (cons_expr ctx kenv loops sets) args)
  | "size" -> add_cons sets [ Varset.Coll base ]
  | "get" ->
      List.iter (cons_expr ctx kenv loops sets) args;
      add_cons sets [ Varset.Coll base ];
      (* reading an element touches all its fields conservatively *)
      (match elt_ty with
      | Ast.Tclass cls ->
          add_cons sets
            (List.map (fun f -> Varset.ElemField (base, f)) (class_fields ctx.prog cls))
      | _ -> add_cons sets [ Varset.ElemField (base, prim_field) ])
  | "clear" -> add_gen sets [ Varset.Coll base ]
  | _ -> List.iter (cons_expr ctx kenv loops sets) args

and analyze_user_call ctx kenv loops sets fd ~recv ~args =
  if List.mem fd.Ast.fd_name ctx.visiting then begin
    (* recursive call: coarse summary — consume everything reachable *)
    (match recv with Some r -> cons_expr ctx kenv loops sets r | None -> ());
    List.iter (cons_expr ctx kenv loops sets) args
  end
  else begin
    ctx.visiting <- fd.Ast.fd_name :: ctx.visiting;
    (* Bind formals: reference kinds map to the actual's base; by-value
       formals consume the actual at the call site. *)
    let callee_kenv = ref [] in
    (match recv with
    | Some r -> (
        match kind_of_actual ctx kenv r with
        | Some k -> callee_kenv := ("this", k) :: !callee_kenv
        | None -> cons_expr ctx kenv loops sets r)
    | None -> ());
    List.iter2
      (fun (fty, fname) actual ->
        match kind_of_actual ctx kenv actual with
        | Some k -> callee_kenv := (fname, k) :: !callee_kenv
        | None ->
            cons_expr ctx kenv loops sets actual;
            callee_kenv := (fname, kind_of_ty fname fty) :: !callee_kenv)
      fd.Ast.fd_params args;
    let callee_sets = { gen = Varset.empty; cons = Varset.empty } in
    analyze_stmts_rev ctx !callee_kenv [] callee_sets fd.Ast.fd_body;
    (* Drop items rooted at callee-private names: "this", formals and
       locals.  A formal whose kind maps to a caller base produced items
       under the caller base already, so dropping formal-rooted items is
       safe. *)
    let locals =
      ("this" :: List.map snd fd.Ast.fd_params) @ collect_decls fd.Ast.fd_body
    in
    let gen_s, cons_s = drop_private ~locals callee_sets in
    merge_composite sets ~gen_s ~cons_s ~keep_gen:true;
    ctx.visiting <- List.tl ctx.visiting
  end

(* ------------------------------------------------------------------ *)
(* Lvalue definitions                                                   *)
(* ------------------------------------------------------------------ *)

and gen_lvalue ctx kenv loops sets (l : Ast.lvalue) =
  match l with
  | Ast.Lvar v -> (
      match lookup_kind ctx kenv v with
      | Kscalar | Kopaque -> add_gen sets [ Varset.Var v ]
      | k -> add_gen sets (items_of_whole ctx k))
  | Ast.Lfield (Ast.Lvar v, f) -> (
      match lookup_kind ctx kenv v with
      | Kobj (base, _) | Kelem (base, _) ->
          if must_write ctx v then add_gen sets [ Varset.ElemField (base, f) ]
      | _ -> ())
  | Ast.Lfield (inner, f) ->
      ignore f;
      (* nested path: the intermediate objects are read *)
      cons_lvalue_path ctx kenv loops sets inner
  | Ast.Lindex (Ast.Lvar v, i) -> (
      cons_expr ctx kenv loops sets i;
      match lookup_kind ctx kenv v with
      | Karr base ->
          let s = section_of_index loops i in
          (* a single a[i]= under a counted loop covers the section only
             when merged through the loop rule; at statement level the
             write is must for that section *)
          if must_write ctx v then add_gen sets [ Varset.Arr (base, s) ]
      | _ -> ())
  | Ast.Lindex (inner, i) ->
      cons_expr ctx kenv loops sets i;
      cons_lvalue_path ctx kenv loops sets inner

and cons_lvalue_path ctx kenv loops sets (l : Ast.lvalue) =
  match l with
  | Ast.Lvar v -> add_cons sets (items_of_var ctx kenv v)
  | Ast.Lfield (inner, f) -> (
      match inner with
      | Ast.Lvar v -> (
          match lookup_kind ctx kenv v with
          | Kobj (base, _) | Kelem (base, _) ->
              add_cons sets [ Varset.ElemField (base, f) ]
          | _ -> add_cons sets (items_of_var ctx kenv v))
      | _ -> cons_lvalue_path ctx kenv loops sets inner)
  | Ast.Lindex (inner, i) ->
      cons_expr ctx kenv loops sets i;
      cons_lvalue_path ctx kenv loops sets inner

(* The lvalue's own prior value is consumed (compound updates). *)
and cons_lvalue ctx kenv loops sets (l : Ast.lvalue) =
  match l with
  | Ast.Lvar v -> add_cons sets (items_of_var ctx kenv v)
  | Ast.Lfield (Ast.Lvar v, f) -> (
      match lookup_kind ctx kenv v with
      | Kobj (base, _) | Kelem (base, _) ->
          add_cons sets [ Varset.ElemField (base, f) ]
      | _ -> add_cons sets (items_of_var ctx kenv v))
  | Ast.Lfield (inner, _) -> cons_lvalue_path ctx kenv loops sets inner
  | Ast.Lindex (Ast.Lvar v, i) -> (
      cons_expr ctx kenv loops sets i;
      match lookup_kind ctx kenv v with
      | Karr base -> add_cons sets [ Varset.Arr (base, section_of_index loops i) ]
      | _ -> add_cons sets (items_of_var ctx kenv v))
  | Ast.Lindex (inner, i) ->
      cons_expr ctx kenv loops sets i;
      cons_lvalue_path ctx kenv loops sets inner

(* ------------------------------------------------------------------ *)
(* Statements (reverse traversal)                                       *)
(* ------------------------------------------------------------------ *)

(* Recognize the counted-loop header [for (int i = lo; i < hi; i = i+1)]. *)
and counted_loop_header (init : Ast.stmt) (cond : Ast.expr) (step : Ast.stmt) =
  let index_var, lo =
    match init.Ast.s with
    | Ast.Sdecl (Ast.Tint, v, Some lo) -> (Some v, bound_of_expr lo)
    | Ast.Sassign (Ast.Lvar v, lo) -> (Some v, bound_of_expr lo)
    | _ -> (None, None)
  in
  match (index_var, lo) with
  | Some v, Some lo -> (
      let hi =
        match cond.Ast.e with
        | Ast.Ebinop (Ast.Lt, { e = Ast.Evar v'; _ }, hi) when v' = v ->
            bound_of_expr hi
        | Ast.Ebinop (Ast.Le, { e = Ast.Evar v'; _ }, hi) when v' = v -> (
            match bound_of_expr hi with
            | Some b -> Some (bound_add b 1)
            | None -> None)
        | _ -> None
      in
      let unit_step =
        match step.Ast.s with
        | Ast.Sassign
            ( Ast.Lvar v',
              {
                e =
                  Ast.Ebinop (Ast.Add, { e = Ast.Evar v''; _ }, { e = Ast.Eint 1; _ });
                _;
              } ) ->
            v' = v && v'' = v
        | Ast.Supdate (Ast.Lvar v', Ast.Add, { e = Ast.Eint 1; _ }) -> v' = v
        | _ -> false
      in
      match (hi, unit_step) with
      | Some hi, true -> Some { li_var = v; li_lo = lo; li_hi = hi }
      | _ -> None)
  | _ -> None

(* [kenv] already holds every declaration of the enclosing statement list:
   declarations bind for later statements, so the reverse traversal
   collects their kinds in a forward pre-pass ([collect_kinds]). *)
and analyze_stmt_rev ctx kenv loops sets (st : Ast.stmt) =
  match st.Ast.s with
  | Ast.Sdecl (_, name, init) ->
      (* A declaration must-defines its contents only when the
         initializer constructs a fresh value (or zero-initializes);
         copying a reference ([T q = t;], [T q = xs.get(i);]) makes the
         new name an alias whose fields belong to the source object. *)
      let fresh_init =
        match init with
        | None -> true
        | Some { Ast.e = Ast.Enew _ | Ast.Enew_array _ | Ast.Enew_list _; _ }
          ->
            true
        | Some { Ast.e = Ast.Ecall _; _ } -> true
        | Some
            {
              Ast.e =
                ( Ast.Eint _ | Ast.Efloat _ | Ast.Ebool _ | Ast.Estring _
                | Ast.Erange _ | Ast.Eruntime_define _ | Ast.Ebinop _
                | Ast.Eunop _ );
              _;
            } ->
            true
        | Some _ -> false
      in
      (match lookup_kind ctx kenv name with
      | Kscalar | Kopaque -> add_gen sets [ Varset.Var name ]
      | k -> if fresh_init then add_gen sets (items_of_whole ctx k));
      (match init with
      | None -> ()
      | Some e -> cons_expr ctx kenv loops sets e)
  | Ast.Sassign (l, e) ->
      gen_lvalue ctx kenv loops sets l;
      cons_expr ctx kenv loops sets e
  | Ast.Supdate (l, _, e) ->
      gen_lvalue ctx kenv loops sets l;
      cons_lvalue ctx kenv loops sets l;
      cons_expr ctx kenv loops sets e
  | Ast.Sif (c, th, el) ->
      (* branch Gen is not added (Figure 2's conditional rule) *)
      let branch body =
        let s = { gen = Varset.empty; cons = Varset.empty } in
        analyze_stmts_rev ctx kenv loops s body;
        snd (drop_private ~locals:(collect_decls body) s)
      in
      merge_composite sets ~gen_s:Varset.empty ~cons_s:(branch th) ~keep_gen:false;
      merge_composite sets ~gen_s:Varset.empty ~cons_s:(branch el) ~keep_gen:false;
      cons_expr ctx kenv loops sets c
  | Ast.Sfor (init, cond, step, body) ->
      let loop = counted_loop_header init cond step in
      let inner_loops = match loop with Some l -> l :: loops | None -> loops in
      let inner_kenv =
        match init.Ast.s with
        | Ast.Sdecl (ty, v, _) -> (v, kind_of_ty v ty) :: kenv
        | _ -> kenv
      in
      let body_kenv = collect_kinds ctx inner_kenv body in
      let s = { gen = Varset.empty; cons = Varset.empty } in
      analyze_stmts_rev ctx body_kenv inner_loops s body;
      (* the loop's own index and body locals are private *)
      let locals =
        let l = collect_decls body in
        match init.Ast.s with
        | Ast.Sdecl (_, v, _) -> v :: l
        | _ -> l
      in
      let gen_s, cons_s = drop_private ~locals s in
      let gen_s =
        match loop with
        | Some _ -> gen_s
        | None ->
            (* unrecognized loop shape: keep scalar/field Gen (>=1
               iteration), drop array sections we cannot justify *)
            Varset.filter (function Varset.Arr _ -> false | _ -> true) gen_s
      in
      merge_composite sets ~gen_s ~cons_s ~keep_gen:true;
      (* header expressions *)
      (match init.Ast.s with
      | Ast.Sdecl (_, _, Some e) -> cons_expr ctx kenv loops sets e
      | Ast.Sassign (_, e) -> cons_expr ctx kenv loops sets e
      | _ -> ());
      cons_expr ctx kenv loops sets cond
  | Ast.Swhile (c, body) ->
      let body_kenv = collect_kinds ctx kenv body in
      let s = { gen = Varset.empty; cons = Varset.empty } in
      analyze_stmts_rev ctx body_kenv loops s body;
      let gen_s, cons_s = drop_private ~locals:(collect_decls body) s in
      let gen_s = Varset.filter (function Varset.Arr _ -> false | _ -> true) gen_s in
      merge_composite sets ~gen_s ~cons_s ~keep_gen:true;
      cons_expr ctx kenv loops sets c
  | Ast.Sforeach { fe_var; fe_coll; fe_where; fe_body } ->
      let coll_kind =
        match fe_coll.Ast.e with
        | Ast.Evar v -> lookup_kind ctx kenv v
        | _ -> Kopaque
      in
      let elem_kind, coll_base =
        match coll_kind with
        | Kcoll (base, Ast.Tclass cls) -> (Kelem (base, cls), Some base)
        | Kcoll (base, _) -> (Kelem_prim base, Some base)
        | Karr base -> (Kscalar, Some base)
        | _ -> (Kscalar, None)
      in
      let inner_kenv = (fe_var, elem_kind) :: kenv in
      let body_kenv = collect_kinds ctx inner_kenv fe_body in
      let s = { gen = Varset.empty; cons = Varset.empty } in
      analyze_stmts_rev ctx body_kenv [] s fe_body;
      (match fe_where with
      | None -> ()
      | Some w -> cons_expr ctx body_kenv [] s w);
      let gen_s, cons_s =
        drop_private ~locals:(fe_var :: collect_decls fe_body) s
      in
      (* a where-clause makes per-element writes to the iterated
         collection partial: they cannot be must-defined *)
      let gen_s =
        match (fe_where, coll_base) with
        | Some _, Some base ->
            Varset.filter
              (function
                | Varset.ElemField (c, _) when c = base -> false
                | Varset.Arr _ -> false
                | _ -> true)
              gen_s
        | Some _, None ->
            Varset.filter (function Varset.Arr _ -> false | _ -> true) gen_s
        | None, _ -> gen_s
      in
      merge_composite sets ~gen_s ~cons_s ~keep_gen:true;
      (* iterating consumes the collection structure *)
      (match coll_kind with
      | Kcoll (base, _) -> add_cons sets [ Varset.Coll base ]
      | Karr base -> add_cons sets [ Varset.Arr (base, Section.Whole) ]
      | _ -> cons_expr ctx kenv loops sets fe_coll);
      (match fe_coll.Ast.e with
      | Ast.Evar _ -> ()
      | _ -> cons_expr ctx kenv loops sets fe_coll)
  | Ast.Sexpr e -> cons_expr ctx kenv loops sets e
  | Ast.Sreturn None | Ast.Sbreak | Ast.Scontinue -> ()
  | Ast.Sreturn (Some e) -> cons_expr ctx kenv loops sets e
  | Ast.Sblock body ->
      let body_kenv = collect_kinds ctx kenv body in
      let s = { gen = Varset.empty; cons = Varset.empty } in
      analyze_stmts_rev ctx body_kenv loops s body;
      let gen_s, cons_s = drop_private ~locals:(collect_decls body) s in
      merge_composite sets ~gen_s ~cons_s ~keep_gen:true

and analyze_stmts_rev ctx kenv loops sets stmts =
  List.iter (analyze_stmt_rev ctx kenv loops sets) (List.rev stmts)

(* Collect kinds of variables declared directly in a statement list (used
   to seed the kind environment before the reverse traversal). *)
and collect_kinds _ctx kenv stmts =
  List.fold_left
    (fun kenv (st : Ast.stmt) ->
      match st.Ast.s with
      | Ast.Sdecl (ty, name, _) -> (name, kind_of_ty name ty) :: kenv
      | _ -> kenv)
    kenv stmts

(* ------------------------------------------------------------------ *)
(* Public interface                                                     *)
(* ------------------------------------------------------------------ *)

(* The outer kinds are those of [Tyenv.of_body]: the packet variable,
   the globals, and every top-level declaration of [body] (names are unique
   at the top level of the body; the type checker enforces per-scope
   uniqueness). *)
let create_ctx (prog : Ast.program) (body : Ast.stmt list) =
  {
    prog;
    outer_kinds =
      List.map
        (fun (name, ty) -> (name, kind_of_ty name ty))
        (Tyenv.of_body prog body);
    visiting = [];
    cur_aliases = None;
  }

(* The may-alias classes of a statement list under this context's kind
   environment. *)
let aliases_of ctx (stmts : Ast.stmt list) =
  let kenv = collect_kinds ctx ctx.outer_kinds stmts in
  let is_ref name =
    match lookup_kind ctx kenv name with
    | Kobj _ | Kcoll _ | Karr _ -> true
    | Kscalar | Kelem _ | Kelem_prim _ | Kopaque -> false
  in
  Alias.of_stmts ~is_ref stmts

(* Gen/Cons of one segment (a list of top-level statements).

   Gen is must-information (Figure 2), so writes through a possibly
   aliased reference cannot claim a definition: the per-segment may-alias
   classes ([Alias]) demote Gen items rooted at aliased object or
   collection variables. *)
let analyze_segment ctx (stmts : Ast.stmt list) =
  ctx.cur_aliases <- Some (aliases_of ctx stmts);
  let sets = { gen = Varset.empty; cons = Varset.empty } in
  analyze_stmts_rev ctx ctx.outer_kinds [] sets stmts;
  ctx.cur_aliases <- None;
  (sets.gen, sets.cons)

(* Names of extern functions (not defined in the program, not builtin)
   called anywhere in the statements — used to pin data sources/sinks. *)
let externs_called prog stmts =
  let rec in_expr acc (e : Ast.expr) =
    let acc =
      match e.Ast.e with
      | Ast.Ecall (f, _)
        when Ast.find_func prog f = None && not (Typecheck.is_builtin f) ->
          S.add f acc
      | _ -> acc
    in
    List.fold_left in_expr acc (Ast.sub_exprs e)
  in
  let rec in_stmt acc st =
    let es, ss = Ast.stmt_parts st in
    List.fold_left in_stmt (List.fold_left in_expr acc es) ss
  in
  List.fold_left in_stmt S.empty stmts
