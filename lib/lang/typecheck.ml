(* Type checker for PipeLang.

   Checks the whole program and annotates every expression with its type
   (the mutable [ety] field).  Host-provided data sources (e.g. the
   functions reading packets from a repository) are declared to the checker
   as extern signatures.

   Reduction classes (implementing [Reducinterface]) must provide a
   [merge] method taking one argument of the same class: the runtime uses
   it to combine per-packet and per-copy partial results, relying on the
   associativity/commutativity contract of the paper. *)

open Ast

type extern_sig = { ex_name : string; ex_params : ty list; ex_ret : ty }

type env = {
  prog : program;
  externs : extern_sig list;
  mutable scopes : (string * ty) list list;
  current_ret : ty;
}

let builtin_externs =
  [
    { ex_name = "sqrt"; ex_params = [ Tfloat ]; ex_ret = Tfloat };
    { ex_name = "fabs"; ex_params = [ Tfloat ]; ex_ret = Tfloat };
    { ex_name = "sin"; ex_params = [ Tfloat ]; ex_ret = Tfloat };
    { ex_name = "cos"; ex_params = [ Tfloat ]; ex_ret = Tfloat };
    { ex_name = "floor"; ex_params = [ Tfloat ]; ex_ret = Tfloat };
    { ex_name = "ceil"; ex_params = [ Tfloat ]; ex_ret = Tfloat };
    { ex_name = "fmin"; ex_params = [ Tfloat; Tfloat ]; ex_ret = Tfloat };
    { ex_name = "fmax"; ex_params = [ Tfloat; Tfloat ]; ex_ret = Tfloat };
    { ex_name = "imin"; ex_params = [ Tint; Tint ]; ex_ret = Tint };
    { ex_name = "imax"; ex_params = [ Tint; Tint ]; ex_ret = Tint };
    { ex_name = "iabs"; ex_params = [ Tint ]; ex_ret = Tint };
    { ex_name = "int_of_float"; ex_params = [ Tfloat ]; ex_ret = Tint };
    { ex_name = "float_of_int"; ex_params = [ Tint ]; ex_ret = Tfloat };
    { ex_name = "print"; ex_params = [ Tstring ]; ex_ret = Tvoid };
  ]

let is_builtin name = List.exists (fun e -> e.ex_name = name) builtin_externs

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env =
  match env.scopes with [] -> assert false | _ :: rest -> env.scopes <- rest

let bind env loc name ty =
  match env.scopes with
  | [] -> assert false
  | scope :: rest ->
      if List.mem_assoc name scope then
        Srcloc.errorf loc "variable %s already defined in this scope" name;
      env.scopes <- ((name, ty) :: scope) :: rest

let lookup env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with
        | Some ty -> Some ty
        | None -> go rest)
  in
  go env.scopes

(* int is implicitly promotable to float, as in Java's widening. *)
let widens ~target ~src = ty_equal target Tfloat && ty_equal src Tint

(* [null] (typed [void]) is a value of every class and array type, as
   in Java. *)
let is_reference = function Tclass _ | Tarray _ -> true | _ -> false
let is_null (e : expr) = match e.e with Enull -> true | _ -> false

(* Whether [e], of type [src], may flow into a [target] slot. *)
let assignable ~target ~src (e : expr) =
  ty_equal target src || widens ~target ~src || (is_null e && is_reference target)

(* Mark a checked expression that flows into a [target] slot, so the
   interpreter stores a widened value as a float. *)
let mark_widening ~target (e : expr) =
  e.ewiden <-
    (match e.ety with Some src -> widens ~target ~src | None -> false)

let is_numeric = function Tint | Tfloat -> true | _ -> false

let class_field env loc cname fname =
  match find_class env.prog cname with
  | None -> Srcloc.errorf loc "unknown class %s" cname
  | Some cls -> (
      match List.find_opt (fun (_, n) -> n = fname) cls.cd_fields with
      | Some (ty, _) -> ty
      | None -> Srcloc.errorf loc "class %s has no field %s" cname fname)

let rec check_expr env (e : expr) : ty =
  let ty = check_expr_desc env e in
  e.ety <- Some ty;
  ty

and check_expr_desc env (e : expr) : ty =
  let loc = e.eloc in
  match e.e with
  | Eint _ -> Tint
  | Efloat _ -> Tfloat
  | Ebool _ -> Tbool
  | Estring _ -> Tstring
  | Enull -> Tvoid
  | Eruntime_define _ -> Tint
  | Evar v -> (
      match lookup env v with
      | Some ty -> ty
      | None -> Srcloc.errorf loc "unbound variable %s" v)
  | Efield (o, f) -> (
      match check_expr env o with
      | Tclass c -> class_field env loc c f
      | Tarray _ when f = "length" -> Tint
      | t ->
          Srcloc.errorf loc "field access .%s on non-class type %s" f
            (ty_to_string t))
  | Eindex (a, i) -> (
      let it = check_expr env i in
      if not (ty_equal it Tint) then
        Srcloc.errorf loc "array index must be int, got %s" (ty_to_string it);
      match check_expr env a with
      | Tarray t -> t
      | t -> Srcloc.errorf loc "indexing non-array type %s" (ty_to_string t))
  | Ebinop (op, a, b) -> (
      let ta = check_expr env a in
      let tb = check_expr env b in
      match op with
      | Add | Sub | Mul | Div ->
          if not (is_numeric ta && is_numeric tb) then
            Srcloc.errorf loc "arithmetic on non-numeric types %s, %s"
              (ty_to_string ta) (ty_to_string tb);
          if ty_equal ta Tfloat || ty_equal tb Tfloat then Tfloat else Tint
      | Mod ->
          if not (ty_equal ta Tint && ty_equal tb Tint) then
            Srcloc.errorf loc "%% requires int operands";
          Tint
      | Lt | Le | Gt | Ge ->
          if not (is_numeric ta && is_numeric tb) then
            Srcloc.errorf loc "comparison on non-numeric types %s, %s"
              (ty_to_string ta) (ty_to_string tb);
          Tbool
      | Eq | Ne ->
          if
            not
              (ty_equal ta tb
              || (is_numeric ta && is_numeric tb)
              || (is_null a && is_reference tb)
              || (is_null b && is_reference ta))
          then
            Srcloc.errorf loc "equality between incompatible types %s, %s"
              (ty_to_string ta) (ty_to_string tb);
          Tbool
      | And | Or ->
          if not (ty_equal ta Tbool && ty_equal tb Tbool) then
            Srcloc.errorf loc "boolean operator on non-bool operands";
          Tbool)
  | Eunop (Neg, a) ->
      let t = check_expr env a in
      if not (is_numeric t) then Srcloc.errorf loc "negation of non-numeric";
      t
  | Eunop (Not, a) ->
      let t = check_expr env a in
      if not (ty_equal t Tbool) then Srcloc.errorf loc "! on non-bool";
      Tbool
  | Ecall (f, args) -> (
      let arg_tys = List.map (check_expr env) args in
      match find_func env.prog f with
      | Some fd ->
          check_call loc f (List.map fst fd.fd_params) args arg_tys;
          fd.fd_ret
      | None -> (
          match List.find_opt (fun ex -> ex.ex_name = f) env.externs with
          | Some ex ->
              check_call loc f ex.ex_params args arg_tys;
              ex.ex_ret
          | None -> Srcloc.errorf loc "unknown function %s" f))
  | Emethod (o, m, args) -> (
      let ot = check_expr env o in
      let arg_tys = List.map (check_expr env) args in
      match ot with
      | Tlist elt -> (
          match (m, arg_tys) with
          | "add", [ t ] ->
              if not (assignable ~target:elt ~src:t (List.hd args)) then
                Srcloc.errorf loc "List<%s>.add with %s" (ty_to_string elt)
                  (ty_to_string t);
              List.iter (mark_widening ~target:elt) args;
              Tvoid
          | "size", [] -> Tint
          | "get", [ Tint ] -> elt
          | "clear", [] -> Tvoid
          | _, _ -> Srcloc.errorf loc "unknown List method %s/%d" m (List.length args))
      | Tclass c -> (
          match find_class env.prog c with
          | None -> Srcloc.errorf loc "unknown class %s" c
          | Some cls -> (
              match find_method cls m with
              | None -> Srcloc.errorf loc "class %s has no method %s" c m
              | Some md ->
                  check_call loc m (List.map fst md.fd_params) args arg_tys;
                  md.fd_ret))
      | t -> Srcloc.errorf loc "method call on non-object type %s" (ty_to_string t))
  | Enew (c, args) -> (
      match find_class env.prog c with
      | None -> Srcloc.errorf loc "unknown class %s" c
      | Some cls ->
          let arg_tys = List.map (check_expr env) args in
          (* constructor: either no args (zero-init) or one arg per field *)
          if arg_tys = [] then Tclass c
          else begin
            let field_tys = List.map fst cls.cd_fields in
            check_call loc ("new " ^ c) field_tys args arg_tys;
            Tclass c
          end)
  | Enew_array (t, n) ->
      let nt = check_expr env n in
      if not (ty_equal nt Tint) then
        Srcloc.errorf loc "array size must be int";
      Tarray t
  | Enew_list t -> Tlist t
  | Erange (lo, hi) ->
      let lt = check_expr env lo and ht = check_expr env hi in
      if not (ty_equal lt Tint && ty_equal ht Tint) then
        Srcloc.errorf loc "rectdomain bounds must be int";
      Trectdomain

and check_call loc name params args arg_tys =
  if List.length params <> List.length arg_tys then
    Srcloc.errorf loc "%s expects %d argument(s), got %d" name
      (List.length params) (List.length arg_tys);
  List.iter2
    (fun p (a, e) ->
      if not (assignable ~target:p ~src:a e) then
        Srcloc.errorf loc "%s: argument type %s incompatible with %s" name
          (ty_to_string a) (ty_to_string p))
    params (List.combine arg_tys args);
  List.iter2 (fun p e -> mark_widening ~target:p e) params args

let rec check_lvalue env loc (l : lvalue) : ty =
  match l with
  | Lvar v -> (
      match lookup env v with
      | Some ty -> ty
      | None -> Srcloc.errorf loc "unbound variable %s" v)
  | Lfield (o, f) -> (
      match check_lvalue env loc o with
      | Tclass c -> class_field env loc c f
      | t -> Srcloc.errorf loc "field write .%s on non-class %s" f (ty_to_string t))
  | Lindex (a, i) -> (
      let it = check_expr env i in
      if not (ty_equal it Tint) then Srcloc.errorf loc "array index must be int";
      match check_lvalue env loc a with
      | Tarray t -> t
      | t -> Srcloc.errorf loc "indexing non-array %s" (ty_to_string t))

let element_type _env loc coll_ty =
  match coll_ty with
  | Trectdomain -> Tint
  | Tlist t -> t
  | Tarray t -> t
  | t -> Srcloc.errorf loc "foreach over non-collection type %s" (ty_to_string t)

let rec check_stmt env (st : stmt) =
  let loc = st.sloc in
  match st.s with
  | Sdecl (ty, name, init) ->
      (match init with
      | None -> ()
      | Some e ->
          let et = check_expr env e in
          if not (assignable ~target:ty ~src:et e) then
            Srcloc.errorf loc "cannot initialize %s %s with %s"
              (ty_to_string ty) name (ty_to_string et);
          mark_widening ~target:ty e);
      bind env loc name ty
  | Sassign (l, e) ->
      let lt = check_lvalue env loc l in
      let et = check_expr env e in
      if not (assignable ~target:lt ~src:et e) then
        Srcloc.errorf loc "cannot assign %s to %s" (ty_to_string et)
          (ty_to_string lt);
      mark_widening ~target:lt e
  | Supdate (l, op, e) -> (
      let lt = check_lvalue env loc l in
      let et = check_expr env e in
      match op with
      | Add | Sub | Mul ->
          if not (is_numeric lt && is_numeric et) then
            Srcloc.errorf loc "compound update on non-numeric types";
          (* the result must fit the place, as for [l = l op e]; a
             widened [e] tells the interpreter the place is a [float] *)
          if not (assignable ~target:lt ~src:et e) then
            Srcloc.errorf loc "compound update of %s with %s" (ty_to_string lt)
              (ty_to_string et);
          mark_widening ~target:lt e
      | _ -> Srcloc.errorf loc "unsupported compound operator")
  | Sif (c, th, el) ->
      let ct = check_expr env c in
      if not (ty_equal ct Tbool) then Srcloc.errorf loc "if condition not bool";
      check_block env th;
      check_block env el
  | Sfor (init, cond, step, body) ->
      push_scope env;
      check_stmt env init;
      let ct = check_expr env cond in
      if not (ty_equal ct Tbool) then Srcloc.errorf loc "for condition not bool";
      check_stmt env step;
      check_block env body;
      pop_scope env
  | Swhile (c, body) ->
      let ct = check_expr env c in
      if not (ty_equal ct Tbool) then
        Srcloc.errorf loc "while condition not bool";
      check_block env body
  | Sforeach { fe_var; fe_coll; fe_where; fe_body } ->
      let ct = check_expr env fe_coll in
      let elt = element_type env loc ct in
      push_scope env;
      bind env loc fe_var elt;
      (match fe_where with
      | None -> ()
      | Some w ->
          let wt = check_expr env w in
          if not (ty_equal wt Tbool) then
            Srcloc.errorf loc "where clause not bool");
      check_block env fe_body;
      pop_scope env
  | Sexpr e -> ignore (check_expr env e)
  | Sreturn None ->
      if not (ty_equal env.current_ret Tvoid) then
        Srcloc.errorf loc "return without value in non-void function"
  | Sreturn (Some e) ->
      let et = check_expr env e in
      if not (assignable ~target:env.current_ret ~src:et e) then
        Srcloc.errorf loc "return type %s incompatible with %s"
          (ty_to_string et)
          (ty_to_string env.current_ret);
      mark_widening ~target:env.current_ret e
  | Sbreak | Scontinue -> ()
  | Sblock body -> check_block env body

and check_block env body =
  push_scope env;
  List.iter (check_stmt env) body;
  pop_scope env

let check_func env (fd : func_decl) ~self =
  let env = { env with scopes = [ [] ]; current_ret = fd.fd_ret } in
  (match self with
  | None -> ()
  | Some cname -> bind env fd.fd_loc "this" (Tclass cname));
  List.iter (fun (ty, name) -> bind env fd.fd_loc name ty) fd.fd_params;
  check_block env fd.fd_body

let check_class env (cd : class_decl) =
  (* field types must refer to known classes *)
  List.iter
    (fun (ty, name) ->
      match ty with
      | Tclass c when find_class env.prog c = None ->
          Srcloc.errorf cd.cd_loc "field %s.%s has unknown class type %s"
            cd.cd_name name c
      | _ -> ())
    cd.cd_fields;
  List.iter (fun m -> check_func env m ~self:(Some cd.cd_name)) cd.cd_methods;
  if cd.cd_reduc then begin
    match find_method cd "merge" with
    | Some { fd_params = [ (Tclass c, _) ]; fd_ret = Tvoid; _ }
      when c = cd.cd_name ->
        ()
    | _ ->
        Srcloc.errorf cd.cd_loc
          "reduction class %s must define 'void merge(%s other)'" cd.cd_name
          cd.cd_name
  end

(* Check an entire program.  [externs] declares the host-provided data
   source and sink functions on top of the standard math builtins. *)
let check ?(externs = []) (prog : program) =
  let env =
    {
      prog;
      externs = externs @ builtin_externs;
      scopes = [ [] ];
      current_ret = Tvoid;
    }
  in
  (* duplicate class/function names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.cd_name then
        Srcloc.errorf c.cd_loc "duplicate class %s" c.cd_name;
      Hashtbl.add seen c.cd_name ())
    prog.classes;
  let seen_f = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem seen_f f.fd_name then
        Srcloc.errorf f.fd_loc "duplicate function %s" f.fd_name;
      Hashtbl.add seen_f f.fd_name ())
    prog.funcs;
  List.iter (check_class env) prog.classes;
  List.iter (fun f -> check_func env f ~self:None) prog.funcs;
  (* globals: checked in order, visible to the pipelined body *)
  let env = { env with scopes = [ [] ] } in
  List.iter
    (fun g ->
      (match g.gd_init with
      | None -> ()
      | Some e ->
          let et = check_expr env e in
          if not (assignable ~target:g.gd_ty ~src:et e) then
            Srcloc.errorf g.gd_loc "cannot initialize global %s %s with %s"
              (ty_to_string g.gd_ty) g.gd_name (ty_to_string et);
          mark_widening ~target:g.gd_ty e);
      bind env g.gd_loc g.gd_name g.gd_ty)
    prog.globals;
  (* pipelined body: packet variable in scope *)
  push_scope env;
  bind env prog.pipeline.pd_loc prog.pipeline.pd_var Tint;
  let ct = check_expr env prog.pipeline.pd_count in
  if not (ty_equal ct Tint) then
    Srcloc.errorf prog.pipeline.pd_loc "packet count must be int";
  check_block env prog.pipeline.pd_body;
  prog.checked <- true
