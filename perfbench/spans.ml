(* Spans recorded by the benchmark around its calls into the library's
   layers: name, start, end, parent, and the workload/run they belong to.
   They stay in memory and are written out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for a root span *)
  run : string; (* "<workload>/<seed>" *)
  start : float;
  stop : float;
}

type t = {
  clock : unit -> float;
  run : string;
  mutable next : int;
  mutable stack : int list; (* open spans, innermost first *)
  mutable closed : span list; (* reversed *)
}

let create ?(clock = Clock.now) ~run () =
  { clock; run; next = 0; stack = []; closed = [] }

(* Run [f] inside a span called [name]; return its result and the span's
   duration. *)
let timed t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let start = t.clock () in
  t.stack <- id :: t.stack;
  let finish () =
    let stop = t.clock () in
    t.stack <- List.tl t.stack;
    t.closed <- { id; name; parent; run = t.run; start; stop } :: t.closed;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let with_span t name f = fst (timed t name f)

let spans t = List.rev t.closed

(* Summed duration of every span called [name]. *)
let total spans name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.stop -. s.start) else acc)
    0.0 spans

(* Self time of every span: its duration minus its direct children's.
   Spans are opened and closed on one stack, so children never overlap. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)
          +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    spans

(* Self time summed per [key] of a span, in first-seen order. *)
let self_by ~key spans =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let k = key s in
      match Hashtbl.find_opt tbl k with
      | Some v -> Hashtbl.replace tbl k (v +. self)
      | None ->
        order := k :: !order;
        Hashtbl.replace tbl k self)
    (self_times spans);
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"parent\":%d,\"run\":%S,\"start\":%.9f,\"end\":%.9f}"
    s.id s.name s.parent s.run s.start s.stop

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    spans;
  close_out oc
