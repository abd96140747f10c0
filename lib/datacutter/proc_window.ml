(* The credit window of a remote filter copy (see the .mli): the
   decisions only.  The copy driver raises the events and carries out
   the actions; nothing here blocks or does I/O. *)

exception Remote_crash of string

type response = { outs : Filter.buffer option list; error : string option }

type event =
  | Submit of Engine.item list
  | Response of response
  | Crash
  | Give_up
  | Drain
  | Idle

type action =
  | Send of Engine.item list
  | Ack of Engine.item * Filter.buffer option
  | Resend of Engine.item list list
  | Reroute of Engine.item list
  | Fail of string

type wait = Credit | Settle

(* One frame of the window: its items, trimmed from the front as
   partial answers arrive (what remains is exactly the unacknowledged
   suffix a crash must resend or a give-up re-route), and the ring
   slots it is charged against the budget. *)
type frame = { mutable items : Engine.item list; slots : int }

type t = {
  depth : int;
  frame_bytes : int;  (* one slot's payload *)
  ring_slots : int;  (* the slot budget: the request ring *)
  frames : frame Queue.t;  (* in flight, oldest first *)
  mutable used : int;  (* slots charged by the frames in flight *)
  mutable staged : frame option;  (* submitted, waiting for credit *)
  mutable settle : bool;  (* settle everything in flight first *)
}

let create ~depth ~frame_bytes ~slots =
  { depth = max 1 depth; frame_bytes; ring_slots = slots;
    frames = Queue.create (); used = 0; staged = None; settle = false }

let in_flight w = Queue.length w.frames

let awaiting w =
  if Option.is_some w.staged then Some Credit
  else if w.settle && not (Queue.is_empty w.frames) then Some Settle
  else None

(* The staged frame goes out once a credit is free and its slots fit
   the ring beside those in flight, or the window is empty.  At depth 1
   every frame settles right after its send. *)
let release w =
  match w.staged with
  | Some fr
    when Queue.length w.frames < w.depth
         && (w.used = 0 || w.used + fr.slots <= w.ring_slots) ->
      w.staged <- None;
      Queue.push fr w.frames;
      w.used <- w.used + fr.slots;
      if w.depth = 1 then w.settle <- true;
      [ Send fr.items ]
  | _ -> []

(* At least the bytes the frame encodes to. *)
let estimate items =
  List.fold_left (fun a it -> a + Engine.item_cost it) 32 items

let frame_of w items =
  { items; slots = max 1 ((estimate items + w.frame_bytes - 1) / w.frame_bytes) }

let submit w items =
  w.staged <- Some (frame_of w items);
  release w

(* The staged frame takes what [take] hands over while its estimate
   stays within [frame_bytes]; the items it takes go out with it. *)
let absorb w take =
  match w.staged with
  | None -> ()
  | Some fr ->
      let rec more est acc =
        match take (w.frame_bytes - est) with
        | Some it -> more (est + Engine.item_cost it) (it :: acc)
        | None -> acc
      in
      (match more (estimate fr.items) [] with
      | [] -> ()
      | taken -> w.staged <- Some (frame_of w (fr.items @ List.rev taken)))

(* The head frame after its answer leaves the window once nothing is
   owed on it, so a crash never resends an empty frame. *)
let finish w fr error =
  if fr.items = [] then begin
    ignore (Queue.pop w.frames);
    w.used <- w.used - fr.slots;
    if Queue.is_empty w.frames then w.settle <- false
  end;
  match error with
  | Some msg -> [ Fail msg ]
  | None when fr.items <> [] ->
      [ Fail "worker acknowledged fewer items than sent" ]
  | None -> release w

(* Acknowledge the head frame's items against the answer's emissions,
   in order. *)
let rec ack w fr error outs =
  match (outs, fr.items) with
  | [], _ -> finish w fr error
  | _ :: _, [] -> finish w fr (Some "worker acknowledged more items than sent")
  | out :: outs, it :: rest ->
      fr.items <- rest;
      Ack (it, out) :: ack w fr error outs

let respond w { outs; error } =
  if Queue.is_empty w.frames then
    [ Fail "worker answered with no frame in flight" ]
  else ack w (Queue.peek w.frames) error outs

let owed w = List.of_seq (Queue.to_seq w.frames)

let step w = function
  | Submit items -> submit w items
  | Response r -> respond w r
  | Crash ->
      (match owed w with
      | [] -> []
      | frs -> [ Resend (List.map (fun fr -> fr.items) frs) ])
      @ release w
  | Give_up ->
      let items =
        List.concat_map (fun fr -> fr.items) (owed w @ Option.to_list w.staged)
      in
      Queue.clear w.frames;
      w.used <- 0;
      w.staged <- None;
      w.settle <- false;
      if items = [] then [] else [ Reroute items ]
  | Drain | Idle ->
      if not (Queue.is_empty w.frames) then w.settle <- true;
      []
