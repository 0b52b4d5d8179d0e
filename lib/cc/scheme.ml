open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock

type t = Hybrid | Static | Locking

let name = function
  | Hybrid -> "hybrid"
  | Static -> "static"
  | Locking -> "locking"

let analysis_len = 4

let relation scheme spec =
  match scheme with
  | Locking -> Dynamic_dep.minimal spec ~max_len:analysis_len
  | Hybrid | Static -> Static_dep.minimal spec ~max_len:analysis_len

let conflict_table ?relation:object_relation scheme spec =
  Conflict_table.of_relation
    (match (scheme, object_relation) with
     | (Hybrid | Static), Some r -> r
     | (Hybrid | Static), None | Locking, _ -> relation scheme spec)

type entry = {
  action : Action.t;
  begin_ts : Lamport.Timestamp.t;
  seq : int;
  event : Event.t;
}

type view = {
  committed : entry list;
  tentative : entry list;
  own : entry list;
  begin_ts : Lamport.Timestamp.t;
}

type outcome =
  | Executed of Event.Response.t
  | Blocked of Action.t
  | Rejected of string

let pp_outcome ppf = function
  | Executed res -> Format.fprintf ppf "Executed %a" Event.Response.pp res
  | Blocked a -> Format.fprintf ppf "Blocked on %a" Action.pp a
  | Rejected why -> Format.fprintf ppf "Rejected (%s)" why

let events entries = List.map (fun e -> e.event) entries

(* The serial state after [entries] and then the caller's [own] entries. *)
let replay spec entries own =
  Option.bind (Serial_spec.run spec (events entries)) (fun s ->
      Serial_spec.run_from spec s (events own))

(* Static serialization order: Begin timestamp, then operation index. *)
let compare_position bts1 seq1 bts2 seq2 =
  let c = Lamport.Timestamp.compare bts1 bts2 in
  if c <> 0 then c else Int.compare seq1 seq2

let by_position (e1 : entry) (e2 : entry) =
  compare_position e1.begin_ts e1.seq e2.begin_ts e2.seq

let decide scheme spec table (view : view) inv =
  let earlier (e : entry) = Lamport.Timestamp.compare e.begin_ts view.begin_ts < 0 in
  let blocks (e : entry) =
    (match scheme with Static -> earlier e | Hybrid | Locking -> true)
    && Conflict_table.related table inv e.event
  in
  match List.find_opt blocks view.tentative with
  | Some e -> Blocked e.action
  | None ->
    (match scheme with
     | Hybrid | Locking ->
       (match replay spec view.committed view.own with
        | None -> Rejected "view reconstruction failed"
        | Some state ->
          (match Serial_spec.responses spec state inv with
           | [] -> Rejected "no legal response"
           | (res, _) :: _ -> Executed res))
     | Static ->
       (* The response is chosen from the committed entries before the
          caller's position plus its own; a candidate survives if the whole
          non-aborted timeline stays legal with it inserted at that
          position, i.e. after every entry keyed at or before
          (begin_ts, number of own entries). *)
       let prefix = List.stable_sort by_position (List.filter earlier view.committed) in
       (match replay spec prefix view.own with
        | None -> Rejected "inconsistent timeline"
        | Some state ->
          let seq = List.length view.own in
          let before, after =
            List.stable_sort by_position (view.committed @ view.tentative @ view.own)
            |> List.partition (fun (e : entry) ->
                   compare_position e.begin_ts e.seq view.begin_ts seq <= 0)
          in
          let rest = events after in
          let viable =
            match Serial_spec.run spec (events before) with
            | None -> None
            | Some at ->
              List.find_opt
                (fun (res, _) ->
                  Serial_spec.legal_from spec at (Event.make inv res :: rest))
                (Serial_spec.responses spec state inv)
          in
          (match viable with
           | None -> Rejected "timestamp order violation"
           | Some (res, _) -> Executed res)))
