(* Recursive-descent parser for PipeLang.

   Grammar (informal):
     program   := (class | func | pipeline)*
     class     := "class" IDENT ("implements" "Reducinterface")? "{" member* "}"
     member    := type IDENT ";" | type IDENT "(" params ")" block
     func      := type IDENT "(" params ")" block
     pipeline  := "pipelined" "(" IDENT "in" expr ")" block
     type      := base ("[" "]")*
     base      := "int" | "float" | "bool" | "void" | "String"
                | "Rectdomain" ("<" INT ">")? | "List" "<" type ">" | IDENT
   Statements and expressions are the usual Java-like forms, plus
     foreach (x in e (where e)?) block
     [lo : hi]                       -- rectdomain literal
     runtime_define IDENT            -- runtime-configured constant *)

open Ast

type state = { toks : Lexer.located array; mutable pos : int }

let make toks = { toks = Array.of_list toks; pos = 0 }
let peek st = st.toks.(st.pos).tok
let peek_loc st = st.toks.(st.pos).loc

let peek_at st n =
  let i = st.pos + n in
  if i < Array.length st.toks then st.toks.(i).tok else Token.EOF

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let error st fmt =
  Srcloc.errorf (peek_loc st) ("parse error: " ^^ fmt)

let expect st tok =
  if peek st = tok then advance st
  else
    error st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek st))

let expect_ident st =
  match peek st with
  | Token.IDENT name ->
      advance st;
      name
  | t -> error st "expected identifier but found %s" (Token.to_string t)

(* --- types --- *)

let starts_type = function
  | Token.KW_INT | Token.KW_FLOAT | Token.KW_BOOL | Token.KW_VOID
  | Token.KW_STRING | Token.KW_RECTDOMAIN | Token.KW_LIST ->
      true
  | _ -> false

let rec parse_type st =
  let base =
    match peek st with
    | Token.KW_INT ->
        advance st;
        Tint
    | Token.KW_FLOAT ->
        advance st;
        Tfloat
    | Token.KW_BOOL ->
        advance st;
        Tbool
    | Token.KW_VOID ->
        advance st;
        Tvoid
    | Token.KW_STRING ->
        advance st;
        Tstring
    | Token.KW_RECTDOMAIN ->
        advance st;
        (* optional <1> dimension annotation *)
        if peek st = Token.LT then begin
          advance st;
          (match peek st with
          | Token.INT 1 -> advance st
          | Token.INT n -> error st "only Rectdomain<1> is supported, got <%d>" n
          | t -> error st "expected dimension, found %s" (Token.to_string t));
          expect st Token.GT
        end;
        Trectdomain
    | Token.KW_LIST ->
        advance st;
        expect st Token.LT;
        let elt = parse_type st in
        expect st Token.GT;
        Tlist elt
    | Token.IDENT name ->
        advance st;
        Tclass name
    | t -> error st "expected a type, found %s" (Token.to_string t)
  in
  let rec arrays t =
    if peek st = Token.LBRACKET && peek_at st 1 = Token.RBRACKET then begin
      advance st;
      advance st;
      arrays (Tarray t)
    end
    else t
  in
  arrays base

(* --- expressions --- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if peek st = Token.OR then begin
    let loc = peek_loc st in
    advance st;
    let rhs = parse_or st in
    mk_expr ~loc (Ebinop (Or, lhs, rhs))
  end
  else lhs

and parse_and st =
  let lhs = parse_equality st in
  if peek st = Token.AND then begin
    let loc = peek_loc st in
    advance st;
    let rhs = parse_and st in
    mk_expr ~loc (Ebinop (And, lhs, rhs))
  end
  else lhs

and parse_equality st =
  let lhs = parse_relational st in
  match peek st with
  | Token.EQ ->
      let loc = peek_loc st in
      advance st;
      let rhs = parse_relational st in
      mk_expr ~loc (Ebinop (Eq, lhs, rhs))
  | Token.NE ->
      let loc = peek_loc st in
      advance st;
      let rhs = parse_relational st in
      mk_expr ~loc (Ebinop (Ne, lhs, rhs))
  | _ -> lhs

and parse_relational st =
  let lhs = parse_additive st in
  let op =
    match peek st with
    | Token.LT -> Some Lt
    | Token.LE -> Some Le
    | Token.GT -> Some Gt
    | Token.GE -> Some Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      let loc = peek_loc st in
      advance st;
      let rhs = parse_additive st in
      mk_expr ~loc (Ebinop (op, lhs, rhs))

and parse_additive st =
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
        let loc = peek_loc st in
        advance st;
        let rhs = parse_multiplicative st in
        go (mk_expr ~loc (Ebinop (Add, lhs, rhs)))
    | Token.MINUS ->
        let loc = peek_loc st in
        advance st;
        let rhs = parse_multiplicative st in
        go (mk_expr ~loc (Ebinop (Sub, lhs, rhs)))
    | _ -> lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    let op =
      match peek st with
      | Token.STAR -> Some Mul
      | Token.SLASH -> Some Div
      | Token.PERCENT -> Some Mod
      | _ -> None
    in
    match op with
    | None -> lhs
    | Some op ->
        let loc = peek_loc st in
        advance st;
        let rhs = parse_unary st in
        go (mk_expr ~loc (Ebinop (op, lhs, rhs)))
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.MINUS ->
      let loc = peek_loc st in
      advance st;
      let e = parse_unary st in
      mk_expr ~loc (Eunop (Neg, e))
  | Token.NOT ->
      let loc = peek_loc st in
      advance st;
      let e = parse_unary st in
      mk_expr ~loc (Eunop (Not, e))
  | _ -> parse_postfix st

and parse_postfix st =
  let rec go recv =
    match peek st with
    | Token.DOT -> (
        advance st;
        let name = expect_ident st in
        if peek st = Token.LPAREN then begin
          let args = parse_arglist st in
          go (mk_expr ~loc:recv.eloc (Emethod (recv, name, args)))
        end
        else go (mk_expr ~loc:recv.eloc (Efield (recv, name))))
    | Token.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st Token.RBRACKET;
        go (mk_expr ~loc:recv.eloc (Eindex (recv, idx)))
    | _ -> recv
  in
  go (parse_primary st)

and parse_arglist st =
  expect st Token.LPAREN;
  if peek st = Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr st in
      if peek st = Token.COMMA then begin
        advance st;
        go (e :: acc)
      end
      else begin
        expect st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_primary st =
  let loc = peek_loc st in
  match peek st with
  | Token.INT n ->
      advance st;
      mk_expr ~loc (Eint n)
  | Token.FLOAT f ->
      advance st;
      mk_expr ~loc (Efloat f)
  | Token.STRING s ->
      advance st;
      mk_expr ~loc (Estring s)
  | Token.KW_TRUE ->
      advance st;
      mk_expr ~loc (Ebool true)
  | Token.KW_FALSE ->
      advance st;
      mk_expr ~loc (Ebool false)
  | Token.KW_NULL ->
      advance st;
      mk_expr ~loc Enull
  | Token.KW_RUNTIME_DEFINE ->
      advance st;
      let name = expect_ident st in
      mk_expr ~loc (Eruntime_define name)
  | Token.KW_NEW -> (
      advance st;
      match peek st with
      | Token.KW_LIST ->
          advance st;
          expect st Token.LT;
          let elt = parse_type st in
          expect st Token.GT;
          expect st Token.LPAREN;
          expect st Token.RPAREN;
          mk_expr ~loc (Enew_list elt)
      | Token.IDENT cname when peek_at st 1 = Token.LPAREN ->
          advance st;
          let args = parse_arglist st in
          mk_expr ~loc (Enew (cname, args))
      | _ ->
          (* new t[n] — array allocation of a base type or class *)
          let base =
            match peek st with
            | Token.KW_INT ->
                advance st;
                Tint
            | Token.KW_FLOAT ->
                advance st;
                Tfloat
            | Token.KW_BOOL ->
                advance st;
                Tbool
            | Token.IDENT c ->
                advance st;
                Tclass c
            | t -> error st "expected type after new, found %s" (Token.to_string t)
          in
          expect st Token.LBRACKET;
          let n = parse_expr st in
          expect st Token.RBRACKET;
          mk_expr ~loc (Enew_array (base, n)))
  | Token.IDENT name ->
      advance st;
      if peek st = Token.LPAREN then
        let args = parse_arglist st in
        mk_expr ~loc (Ecall (name, args))
      else mk_expr ~loc (Evar name)
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.LBRACKET ->
      (* rectdomain literal [lo : hi] *)
      advance st;
      let lo = parse_expr st in
      expect st Token.COLON;
      let hi = parse_expr st in
      expect st Token.RBRACKET;
      mk_expr ~loc (Erange (lo, hi))
  | t -> error st "expected expression, found %s" (Token.to_string t)

(* --- statements --- *)

let rec expr_to_lvalue st (e : expr) =
  match e.e with
  | Evar v -> Lvar v
  | Efield (o, f) -> Lfield (expr_to_lvalue st o, f)
  | Eindex (a, i) -> Lindex (expr_to_lvalue st a, i)
  | _ -> Srcloc.errorf e.eloc "not a valid assignment target"

(* A declaration starts with a type keyword, or with [IDENT IDENT] /
   [IDENT '[' ']'] (a class-typed variable). *)
let looks_like_decl st =
  match peek st with
  | t when starts_type t -> true
  | Token.IDENT _ -> (
      match (peek_at st 1, peek_at st 2) with
      | Token.IDENT _, _ -> true
      | Token.LBRACKET, Token.RBRACKET -> true
      | _ -> false)
  | _ -> false

let rec parse_stmt st =
  let loc = peek_loc st in
  match peek st with
  | Token.LBRACE ->
      let body = parse_block st in
      { s = Sblock body; sloc = loc }
  | Token.KW_IF ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let th = parse_block_or_stmt st in
      let el =
        if peek st = Token.KW_ELSE then begin
          advance st;
          parse_block_or_stmt st
        end
        else []
      in
      { s = Sif (cond, th, el); sloc = loc }
  | Token.KW_WHILE ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let body = parse_block_or_stmt st in
      { s = Swhile (cond, body); sloc = loc }
  | Token.KW_FOR ->
      advance st;
      expect st Token.LPAREN;
      let init = parse_simple_stmt st in
      expect st Token.SEMI;
      let cond = parse_expr st in
      expect st Token.SEMI;
      let step = parse_simple_stmt st in
      expect st Token.RPAREN;
      let body = parse_block_or_stmt st in
      { s = Sfor (init, cond, step, body); sloc = loc }
  | Token.KW_FOREACH ->
      advance st;
      expect st Token.LPAREN;
      let var = expect_ident st in
      expect st Token.KW_IN;
      let coll = parse_expr st in
      let where =
        if peek st = Token.KW_WHERE then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      expect st Token.RPAREN;
      let body = parse_block_or_stmt st in
      {
        s = Sforeach { fe_var = var; fe_coll = coll; fe_where = where; fe_body = body };
        sloc = loc;
      }
  | Token.KW_RETURN ->
      advance st;
      if peek st = Token.SEMI then begin
        advance st;
        { s = Sreturn None; sloc = loc }
      end
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        { s = Sreturn (Some e); sloc = loc }
      end
  | Token.KW_BREAK ->
      advance st;
      expect st Token.SEMI;
      { s = Sbreak; sloc = loc }
  | Token.KW_CONTINUE ->
      advance st;
      expect st Token.SEMI;
      { s = Scontinue; sloc = loc }
  | _ ->
      let s = parse_simple_stmt st in
      expect st Token.SEMI;
      s

(* A simple statement: declaration, assignment, compound update or
   expression — the forms allowed in for-headers. *)
and parse_simple_stmt st =
  let loc = peek_loc st in
  if looks_like_decl st then begin
    let ty = parse_type st in
    let name = expect_ident st in
    let init =
      if peek st = Token.ASSIGN then begin
        advance st;
        Some (parse_expr st)
      end
      else None
    in
    { s = Sdecl (ty, name, init); sloc = loc }
  end
  else begin
    let e = parse_expr st in
    match peek st with
    | Token.ASSIGN ->
        advance st;
        let rhs = parse_expr st in
        { s = Sassign (expr_to_lvalue st e, rhs); sloc = loc }
    | Token.PLUS_ASSIGN ->
        advance st;
        let rhs = parse_expr st in
        { s = Supdate (expr_to_lvalue st e, Add, rhs); sloc = loc }
    | Token.MINUS_ASSIGN ->
        advance st;
        let rhs = parse_expr st in
        { s = Supdate (expr_to_lvalue st e, Sub, rhs); sloc = loc }
    | Token.STAR_ASSIGN ->
        advance st;
        let rhs = parse_expr st in
        { s = Supdate (expr_to_lvalue st e, Mul, rhs); sloc = loc }
    | _ -> { s = Sexpr e; sloc = loc }
  end

and parse_block st =
  expect st Token.LBRACE;
  let rec go acc =
    if peek st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else go (parse_stmt st :: acc)
  in
  go []

and parse_block_or_stmt st =
  if peek st = Token.LBRACE then parse_block st else [ parse_stmt st ]

(* --- declarations --- *)

let parse_params st =
  expect st Token.LPAREN;
  if peek st = Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let ty = parse_type st in
      let name = expect_ident st in
      if peek st = Token.COMMA then begin
        advance st;
        go ((ty, name) :: acc)
      end
      else begin
        expect st Token.RPAREN;
        List.rev ((ty, name) :: acc)
      end
    in
    go []
  end

let parse_class st =
  let loc = peek_loc st in
  expect st Token.KW_CLASS;
  let name = expect_ident st in
  let reduc =
    if peek st = Token.KW_IMPLEMENTS then begin
      advance st;
      expect st Token.KW_REDUCINTERFACE;
      true
    end
    else false
  in
  expect st Token.LBRACE;
  let fields = ref [] in
  let methods = ref [] in
  let rec members () =
    if peek st = Token.RBRACE then advance st
    else begin
      let mloc = peek_loc st in
      let ty = parse_type st in
      let mname = expect_ident st in
      if peek st = Token.LPAREN then begin
        let params = parse_params st in
        let body = parse_block st in
        methods :=
          { fd_name = mname; fd_params = params; fd_ret = ty; fd_body = body; fd_loc = mloc }
          :: !methods
      end
      else begin
        expect st Token.SEMI;
        fields := (ty, mname) :: !fields
      end;
      members ()
    end
  in
  members ();
  {
    cd_name = name;
    cd_reduc = reduc;
    cd_fields = List.rev !fields;
    cd_methods = List.rev !methods;
    cd_loc = loc;
  }

let parse_pipeline st =
  let loc = peek_loc st in
  expect st Token.KW_PIPELINED;
  expect st Token.LPAREN;
  let var = expect_ident st in
  expect st Token.KW_IN;
  let count =
    match (parse_expr st).e with
    | Erange (_, hi) -> hi
    | _ as e -> mk_expr ~loc e
  in
  expect st Token.RPAREN;
  let body = parse_block st in
  { pd_var = var; pd_count = count; pd_body = body; pd_loc = loc }

let parse_program st =
  let classes = ref [] in
  let funcs = ref [] in
  let globals = ref [] in
  let pipeline = ref None in
  let rec go () =
    match peek st with
    | Token.EOF -> ()
    | Token.KW_CLASS ->
        classes := parse_class st :: !classes;
        go ()
    | Token.KW_PIPELINED ->
        (match !pipeline with
        | Some _ -> error st "a program may contain only one pipelined loop"
        | None -> pipeline := Some (parse_pipeline st));
        go ()
    | _ ->
        let loc = peek_loc st in
        let ty = parse_type st in
        let name = expect_ident st in
        if peek st = Token.LPAREN then begin
          let params = parse_params st in
          let body = parse_block st in
          funcs :=
            { fd_name = name; fd_params = params; fd_ret = ty; fd_body = body; fd_loc = loc }
            :: !funcs
        end
        else begin
          (* top-level global: [ty name (= init)? ;] *)
          let init =
            if peek st = Token.ASSIGN then begin
              advance st;
              Some (parse_expr st)
            end
            else None
          in
          expect st Token.SEMI;
          globals :=
            { gd_ty = ty; gd_name = name; gd_init = init; gd_loc = loc }
            :: !globals
        end;
        go ()
  in
  go ();
  match !pipeline with
  | None -> error st "program has no pipelined loop"
  | Some pipeline ->
      {
        classes = List.rev !classes;
        funcs = List.rev !funcs;
        globals = List.rev !globals;
        pipeline;
        checked = false;
      }

(* Parse a full compilation unit from source text. *)
let parse ?(file = "<input>") src =
  let toks = Lexer.tokenize ~file src in
  parse_program (make toks)

(* Parse a single expression (used by tests). *)
let parse_expr_string ?(file = "<expr>") src =
  let toks = Lexer.tokenize ~file src in
  let st = make toks in
  let e = parse_expr st in
  expect st Token.EOF;
  e

(* Parse a statement list (used by tests). *)
let parse_stmts_string ?(file = "<stmts>") src =
  let toks = Lexer.tokenize ~file src in
  let st = make toks in
  let rec go acc =
    if peek st = Token.EOF then List.rev acc else go (parse_stmt st :: acc)
  in
  go []
