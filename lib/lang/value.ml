(* Runtime values of the PipeLang interpreter. *)

(* OCaml 5.1's [Array.make n x] (and so [Array.init], [Array.map],
   [Array.of_list], which fill from their first element) forces a minor
   collection when the array is above 256 words and [x] is young.  Under
   domains every minor collection stops all of them, so nothing on the
   per-item path builds a large array from a fresh value.

   A large array is also born in the major heap, and every young value
   stored into it is promoted by the next minor collection (the
   remembered set).  So the per-item path keeps its young values in
   young arrays: a [List] in chunks of at most 256 elements, and a
   [float[]] as a flat [float array], whose stores box nothing. *)

(* Growable vector used for List<T> collections (output collections that
   foreach bodies append to).  Chunk [k] holds elements
   [k * chunk, (k + 1) * chunk); only the last one may be partly
   filled, and only the first grows (by doubling from 8), so a short
   list stays small.  A chunk is at most 256 words and so is allocated
   in the minor heap, next to the values pushed into it. *)
module Vec = struct
  let bits = 8
  let chunk = 1 lsl bits

  type 'a t = { mutable chunks : 'a array array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }
  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
    Array.unsafe_get (Array.unsafe_get v.chunks (i lsr bits)) (i land (chunk - 1))

  let set v i x =
    if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
    Array.unsafe_set (Array.unsafe_get v.chunks (i lsr bits)) (i land (chunk - 1)) x

  let push v x =
    let k = v.len lsr bits and j = v.len land (chunk - 1) in
    if k = Array.length v.chunks then begin
      (* the spine starts from the static [[||]], so it never forces a
         collection; it stays young up to 256 chunks *)
      let spine = Array.make (max 4 (2 * k)) [||] in
      Array.blit v.chunks 0 spine 0 k;
      v.chunks <- spine
    end;
    let c = v.chunks.(k) in
    let c =
      if j < Array.length c then c
      else begin
        (* a chunk is at most 256 words, so [Array.make] starts it young
           whatever [x] is *)
        let c' = Array.make (if k = 0 then max 8 (2 * j) else chunk) x in
        Array.blit c 0 c' 0 j;
        v.chunks.(k) <- c';
        c'
      end
    in
    Array.unsafe_set c j x;
    v.len <- v.len + 1

  let clear v =
    v.chunks <- [||];
    v.len <- 0

  (* [f] runs in index order; elements pushed meanwhile are not visited *)
  let iter f v =
    let chunks = v.chunks and len = v.len in
    for k = 0 to ((len + chunk - 1) lsr bits) - 1 do
      let c = chunks.(k) in
      for j = 0 to min chunk (len - (k lsl bits)) - 1 do
        f (Array.unsafe_get c j)
      done
    done

  let init n f =
    if n < 0 then invalid_arg "Vec.init";
    let chunks = Array.make ((n + chunk - 1) lsr bits) [||] in
    for k = 0 to Array.length chunks - 1 do
      let lo = k lsl bits in
      let m = min chunk (n - lo) in
      let c = Array.make m (f lo) in
      for j = 1 to m - 1 do
        Array.unsafe_set c j (f (lo + j))
      done;
      chunks.(k) <- c
    done;
    { chunks; len = n }

  let of_list xs =
    let v = create () in
    List.iter (push v) xs;
    v

  let to_list v =
    let rec go i acc = if i < 0 then acc else go (i - 1) (get v i :: acc) in
    go (v.len - 1) []

  let map f v = init v.len (fun i -> f (get v i))
end

type t =
  | Vunit
  | Vnull
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstring of string
  | Varray of t array
  | Vfloats of float array (* a [float[]], unboxed *)
  | Vlist of t Vec.t
  | Vobject of obj
  | Vrange of int * int (* [lo : hi), a 1-d rectdomain *)

(* [slots] holds the fields of every type but [float], in declaration
   order, and [floats] the [float] fields, flat (see [slot]). *)
and obj = { cls : Ast.class_decl; slots : t array; floats : float array }

(* [Array.init] that starts from the immediate [Vnull] (see the top of
   this file); [f] runs in index order. *)
let init_array n f =
  let a = Array.make n Vnull in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

let type_name = function
  | Vunit -> "void"
  | Vnull -> "null"
  | Vint _ -> "int"
  | Vfloat _ -> "float"
  | Vbool _ -> "bool"
  | Vstring _ -> "String"
  | Varray _ | Vfloats _ -> "array"
  | Vlist _ -> "List"
  | Vobject o -> o.cls.Ast.cd_name
  | Vrange _ -> "Rectdomain"

exception Runtime_error of string

let runtime_errorf fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let as_int = function
  | Vint n -> n
  | v -> runtime_errorf "expected int, got %s" (type_name v)

let as_float = function
  | Vfloat f -> f
  | Vint n -> float_of_int n (* implicit widening *)
  | v -> runtime_errorf "expected float, got %s" (type_name v)

let as_bool = function
  | Vbool b -> b
  | v -> runtime_errorf "expected bool, got %s" (type_name v)

let as_string = function
  | Vstring s -> s
  | v -> runtime_errorf "expected String, got %s" (type_name v)

let as_array = function
  | Varray a -> a
  | Vfloats a -> init_array (Array.length a) (fun i -> Vfloat a.(i))
  | v -> runtime_errorf "expected array, got %s" (type_name v)

let as_floats = function
  | Vfloats a -> Array.copy a
  | Varray a -> Array.map as_float a
  | v -> runtime_errorf "expected array, got %s" (type_name v)

let array_length = function
  | Varray a -> Array.length a
  | Vfloats a -> Array.length a
  | v -> runtime_errorf "expected array, got %s" (type_name v)

let array_get v i =
  match v with
  | Varray a -> a.(i)
  | Vfloats a -> Vfloat a.(i)
  | v -> runtime_errorf "expected array, got %s" (type_name v)

let as_list = function
  | Vlist l -> l
  | v -> runtime_errorf "expected List, got %s" (type_name v)

let as_object = function
  | Vobject o -> o
  | v -> runtime_errorf "expected object, got %s" (type_name v)

(* A field's place is fixed per class: each part counts its own fields
   in declaration order.  [fold_fields] is the one walk of the layout:
   [f ty name k acc] for each field, [k] its index in its part. *)
type place = Boxed of int | Flat of int

let fold_fields (cd : Ast.class_decl) f acc =
  let rec go nv nf acc = function
    | [] -> acc
    | (Ast.Tfloat, name) :: rest -> go nv (nf + 1) (f Ast.Tfloat name nf acc) rest
    | (ty, name) :: rest -> go (nv + 1) nf (f ty name nv acc) rest
  in
  go 0 0 acc cd.cd_fields

let place_of (ty : Ast.ty) k = match ty with Ast.Tfloat -> Flat k | _ -> Boxed k
let iter_fields cd f = fold_fields cd (fun ty name k () -> f ty name (place_of ty k)) ()

let slot (cd : Ast.class_decl) name =
  let find ty f k found =
    match found with None when String.equal f name -> Some (place_of ty k) | _ -> found
  in
  match fold_fields cd find None with
  | Some p -> p
  | None -> runtime_errorf "object %s has no field %s" cd.cd_name name

let float_slot (cd : Ast.class_decl) name =
  match slot cd name with
  | Flat k -> k
  | Boxed _ -> runtime_errorf "field %s.%s is not a float" cd.cd_name name

let get o = function Boxed i -> o.slots.(i) | Flat k -> Vfloat o.floats.(k)

let set o p v =
  match p with Boxed i -> o.slots.(i) <- v | Flat k -> o.floats.(k) <- as_float v

let field obj name = get obj (slot obj.cls name)
let set_field obj name v = set obj (slot obj.cls name) v

(* Default (zero) value for a declared type. *)
let zero_of_ty (ty : Ast.ty) =
  match ty with
  | Ast.Tint -> Vint 0
  | Ast.Tfloat -> Vfloat 0.0
  | Ast.Tbool -> Vbool false
  | Ast.Tstring -> Vstring ""
  | Ast.Tvoid -> Vunit
  | Ast.Tarray _ -> Vnull
  | Ast.Tlist _ -> Vlist (Vec.create ())
  | Ast.Trectdomain -> Vrange (0, 0)
  | Ast.Tclass _ -> Vnull

let make_array (ty : Ast.ty) n =
  match ty with
  | Ast.Tfloat -> Vfloats (Array.make n 0.0)
  | _ -> Varray (init_array n (fun _ -> zero_of_ty ty))

(* The layout is computed once per maker.  An object is its record, its
   [slots] (the static [[||]] when every field is a [float]) and its
   [floats]; a [List] field needs a fresh zero in every object. *)
let maker (cls : Ast.class_decl) =
  let boxed ty _ _ tys = match ty with Ast.Tfloat -> tys | _ -> ty :: tys in
  let tys = Array.of_list (List.rev (fold_fields cls boxed [])) in
  let nf = List.length cls.cd_fields - Array.length tys in
  let zeros () = Array.map zero_of_ty tys in
  let shared = zeros () in
  let fresh = Array.exists (function Ast.Tlist _ -> true | _ -> false) tys in
  fun () ->
    { cls; slots = (if fresh then zeros () else Array.copy shared); floats = Array.make nf 0.0 }

let make_object cls = maker cls ()

(* Structural deep copy.  Used when a value crosses a filter boundary in
   value form (tests and the reference evaluator); the production path
   serializes through byte buffers instead. *)
let rec deep_copy = function
  | (Vunit | Vnull | Vint _ | Vfloat _ | Vbool _ | Vstring _ | Vrange _) as v
    ->
      v
  | Varray a -> Varray (init_array (Array.length a) (fun i -> deep_copy a.(i)))
  | Vfloats a -> Vfloats (Array.copy a)
  | Vlist l -> Vlist (Vec.map deep_copy l)
  | Vobject o ->
      Vobject
        {
          o with
          slots = init_array (Array.length o.slots) (fun i -> deep_copy o.slots.(i));
          floats = Array.copy o.floats;
        }

(* Structural equality that treats lists as multisets is deliberately NOT
   provided here; [equal] is plain structural equality in order. *)
let rec equal a b =
  match (a, b) with
  | Vunit, Vunit | Vnull, Vnull -> true
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vrange (a1, b1), Vrange (a2, b2) -> a1 = a2 && b1 = b2
  | (Varray _ | Vfloats _), (Varray _ | Vfloats _) ->
      (* a flat [float[]] equals its boxed form *)
      let n = array_length a in
      n = array_length b
      && (let ok = ref true in
          for i = 0 to n - 1 do
            if not (equal (array_get a i) (array_get b i)) then ok := false
          done;
          !ok)
  | Vlist x, Vlist y ->
      Vec.length x = Vec.length y
      && (let ok = ref true in
          for i = 0 to Vec.length x - 1 do
            if not (equal (Vec.get x i) (Vec.get y i)) then ok := false
          done;
          !ok)
  | Vobject x, Vobject y ->
      (* by names: the objects may come from two parses of one program *)
      String.equal x.cls.cd_name y.cls.cd_name
      && List.equal
           (fun (_, f) (_, g) -> String.equal f g)
           x.cls.cd_fields y.cls.cd_fields
      && equal (Varray x.slots) (Varray y.slots)
      && equal (Vfloats x.floats) (Vfloats y.floats)
  | _ -> false

let rec pp ppf = function
  | Vunit -> Fmt.string ppf "()"
  | Vnull -> Fmt.string ppf "null"
  | Vint n -> Fmt.int ppf n
  | Vfloat f -> Fmt.float ppf f
  | Vbool b -> Fmt.bool ppf b
  | Vstring s -> Fmt.pf ppf "%S" s
  | Vrange (lo, hi) -> Fmt.pf ppf "[%d : %d]" lo hi
  | Varray a ->
      Fmt.pf ppf "[|%a|]" Fmt.(array ~sep:(any "; ") pp) a
  | Vfloats a -> pp ppf (Varray (as_array (Vfloats a)))
  | Vlist l ->
      Fmt.pf ppf "List(%d)[%a]" (Vec.length l)
        Fmt.(list ~sep:(any "; ") pp)
        (Vec.to_list l)
  | Vobject o ->
      let fields =
        fold_fields o.cls (fun ty name k acc -> (name, get o (place_of ty k)) :: acc) []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Fmt.pf ppf "%s{%a}" o.cls.cd_name
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%a" k pp v))
        fields

let to_string v = Fmt.str "%a" pp v
