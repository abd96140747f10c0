(* The value-set domain of the communication analysis (§4.2).

   The Gen/Cons/ReqComm sets of the paper contain "values": scalar
   variables, fields of objects iterated over in foreach loops (tracked
   per collection, since what actually crosses a filter boundary is one
   field instance per collection element), whole collections, and
   rectilinear array sections. *)

type item =
  | Var of string                   (* scalar or whole-object variable *)
  | Coll of string                  (* a collection's structure (its
                                       element count and identity) *)
  | ElemField of string * string    (* field [f] of the elements of
                                       collection [c] *)
  | Arr of string * Section.t       (* rectilinear section of an array *)

let base = function Var v | Coll v | ElemField (v, _) | Arr (v, _) -> v

let item_to_string = function
  | Var v -> v
  | Coll c -> c ^ "#"
  | ElemField (c, f) -> c ^ "." ^ f
  | Arr (a, s) -> a ^ Section.to_string s

(* A set of items.  Array items are keyed by array name and their sections
   merged; everything else is keyed structurally. *)
module Key = struct
  type t = K_var of string | K_coll of string | K_field of string * string | K_arr of string

  let compare = compare
end

module M = Map.Make (Key)

type t = item M.t

let key_of = function
  | Var v -> Key.K_var v
  | Coll c -> Key.K_coll c
  | ElemField (c, f) -> Key.K_field (c, f)
  | Arr (a, _) -> Key.K_arr a

let empty : t = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal
let items (t : t) = M.bindings t |> List.map snd

let mem item (t : t) =
  match M.find_opt (key_of item) t with
  | None -> false
  | Some (Arr (_, s)) -> (
      match item with
      | Arr (_, s') -> Section.covers ~outer:s ~inner:s'
      | _ -> false)
  | Some _ -> true

let add item (t : t) =
  let key = key_of item in
  match (item, M.find_opt key t) with
  | Arr (a, s), Some (Arr (_, s0)) -> M.add key (Arr (a, Section.union s0 s)) t
  | _ -> M.add key item t

(* Remove [item] as must-information: for arrays, only the provably
   covered part disappears. *)
let remove item (t : t) =
  let key = key_of item in
  match (item, M.find_opt key t) with
  | _, None -> t
  | Arr (_, gen_s), Some (Arr (a, have_s)) -> (
      match Section.subtract have_s gen_s with
      | None -> M.remove key t
      | Some s -> M.add key (Arr (a, s)) t)
  | _, Some _ -> M.remove key t

let union (a : t) (b : t) = M.fold (fun _ item acc -> add item acc) b a

(* [diff a b]: a - b with must-semantics on removal. *)
let diff (a : t) (b : t) = M.fold (fun _ item acc -> remove item acc) b a

let fold f (t : t) acc = M.fold (fun _ item acc -> f item acc) t acc
let iter f (t : t) = M.iter (fun _ item -> f item) t
let filter p (t : t) = M.filter (fun _ item -> p item) t
let of_list l = List.fold_left (fun acc i -> add i acc) empty l

let equal (a : t) (b : t) =
  M.equal
    (fun x y ->
      match (x, y) with
      | Arr (_, s1), Arr (_, s2) -> Section.equal s1 s2
      | _ -> x = y)
    a b

(* All items referring to collection [c] (structure or element fields). *)
let about_collection c (t : t) =
  filter
    (function
      | Coll c' | ElemField (c', _) -> String.equal c c'
      | _ -> false)
    t

(* Rename the base variable of every item, used when mapping formals to
   actuals in the interprocedural analysis. *)
let rename f (t : t) =
  fold
    (fun item acc ->
      let item' =
        match item with
        | Var v -> Var (f v)
        | Coll c -> Coll (f c)
        | ElemField (c, fl) -> ElemField (f c, fl)
        | Arr (a, s) -> Arr (f a, s)
      in
      add item' acc)
    t empty

let to_string (t : t) =
  items t |> List.map item_to_string |> String.concat ", "
  |> Printf.sprintf "{%s}"

let pp ppf t = Fmt.string ppf (to_string t)
