(* Placement of logical filters onto a pipeline of computing units.

   A topology is a list of stages; stage 0 holds the data source(s), the
   last stage hosts the sink.  Each stage has a width (number of
   transparent copies, one per node of that stage) and a per-node
   computing power; consecutive stages are joined by links with a
   bandwidth and a per-buffer latency.

   The paper's experimental configurations map directly:
     1-1-1 -> widths [1; 1; 1]
     2-2-1 -> widths [2; 2; 1]
     4-4-1 -> widths [4; 4; 1]                                          *)

type role =
  | Source of (int -> Filter.source)   (* copy index -> source instance *)
  | Inner of (int -> Filter.t)
  | Sink of (int -> Filter.t)

type stage = {
  stage_name : string;
  width : int;
  power : float;          (* weighted ops/second of each node *)
  role : role;
}

type link = {
  bandwidth : float;      (* bytes/second *)
  latency : float;        (* seconds per buffer *)
}

type t = {
  stages : stage list;
  links : link list;      (* length = stages - 1 *)
}

let create ~stages ~links =
  if List.length links <> List.length stages - 1 then
    invalid_arg "Topology.create: need one link fewer than stages";
  List.iter
    (fun s ->
      if s.width < 1 then invalid_arg "Topology.create: stage width < 1";
      if s.power <= 0.0 then invalid_arg "Topology.create: stage power <= 0")
    stages;
  (match stages with
  | [] -> invalid_arg "Topology.create: empty pipeline"
  | first :: _ -> (
      match first.role with
      | Source _ -> ()
      | _ -> invalid_arg "Topology.create: first stage must be a Source"));
  (match List.rev stages with
  | last :: _ :: _ -> (
      match last.role with
      | Sink _ -> ()
      | _ -> invalid_arg "Topology.create: last stage must be a Sink")
  | _ -> ());
  { stages; links }


(* --- observability identities ---

   Every filter copy and every link gets a stable virtual-thread id in
   the exported trace: tid 0 is the compiler, copies follow in stage
   order, links come after all copies.  Both runtimes and the trace
   exporter agree on these through the helpers below. *)

let stage_arr t = Array.of_list t.stages

let copy_tid t ~stage ~copy =
  let stages = stage_arr t in
  let base = ref 1 in
  for s = 0 to stage - 1 do
    base := !base + stages.(s).width
  done;
  !base + copy

let total_copies t = List.fold_left (fun a s -> a + s.width) 0 t.stages

let link_tid t i = 1 + total_copies t + i

let copy_label t ~stage ~copy =
  let stages = stage_arr t in
  Printf.sprintf "%s/%d" stages.(stage).stage_name copy

let link_label t i =
  let stages = stage_arr t in
  Printf.sprintf "link %s->%s" stages.(i).stage_name
    stages.(i + 1).stage_name

(* Emit thread-name metadata for every copy and link (no-op when tracing
   is disabled; [Obs.Trace.events] dedupes repeats). *)
let announce_threads t =
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.set_thread_name ~tid:Obs.Trace.compiler_tid "compiler";
    List.iteri
      (fun s (st : stage) ->
        for k = 0 to st.width - 1 do
          Obs.Trace.set_thread_name ~tid:(copy_tid t ~stage:s ~copy:k)
            (copy_label t ~stage:s ~copy:k)
        done)
      t.stages;
    List.iteri
      (fun i (_ : link) ->
        Obs.Trace.set_thread_name ~tid:(link_tid t i) (link_label t i))
      t.links
  end
