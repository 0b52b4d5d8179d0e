open Atomrep_history

type t = {
  name : string;
  initial : Value.t;
  step : Value.t -> Event.Invocation.t -> (Event.Response.t * Value.t) list;
  invocations : Event.Invocation.t list;
}

let responses spec s inv = spec.step s inv

let apply_event spec s (e : Event.t) =
  let candidates = spec.step s e.inv in
  let matching = List.filter (fun (res, _) -> Event.Response.equal res e.res) candidates in
  match matching with
  | [] -> None
  | (_, s') :: _ -> Some s'

let run_from spec s events =
  let rec go s = function
    | [] -> Some s
    | e :: rest ->
      (match apply_event spec s e with
       | None -> None
       | Some s' -> go s' rest)
  in
  go s events

let run spec events = run_from spec spec.initial events
let legal spec events = Option.is_some (run spec events)
let legal_from spec s events = Option.is_some (run_from spec s events)

let enumerate spec ~max_len =
  (* Breadth-first expansion of the legal-history tree over the invocation
     universe. Histories are stored reversed during expansion. *)
  let expand (rev_hist, s) =
    List.concat_map
      (fun inv ->
        List.map
          (fun (res, s') -> (Event.make inv res :: rev_hist, s'))
          (spec.step s inv))
      spec.invocations
  in
  let rec levels frontier depth acc =
    if depth = 0 then acc
    else begin
      let next = List.concat_map expand frontier in
      match next with
      | [] -> acc
      | _ -> levels next (depth - 1) (List.rev_append next acc)
    end
  in
  let all = levels [ ([], spec.initial) ] max_len [ ([], spec.initial) ] in
  List.rev_map (fun (rev_hist, s) -> (List.rev rev_hist, s)) all

let event_universe spec ~max_len =
  let seen = ref Event.Set.empty in
  List.iter
    (fun (hist, _) -> List.iter (fun e -> seen := Event.Set.add e !seen) hist)
    (enumerate spec ~max_len);
  Event.Set.elements !seen

let rec state_equiv spec ~depth s1 s2 =
  Value.equal s1 s2
  || depth = 0 (* no remaining experiment can distinguish the states *)
  || (depth > 0
      && List.for_all
           (fun inv ->
             let r1 = spec.step s1 inv and r2 = spec.step s2 inv in
             let sort =
               List.sort (fun (a, _) (b, _) -> Event.Response.compare a b)
             in
             let r1 = sort r1 and r2 = sort r2 in
             List.length r1 = List.length r2
             && List.for_all2
                  (fun (res1, s1') (res2, s2') ->
                    Event.Response.equal res1 res2
                    && state_equiv spec ~depth:(depth - 1) s1' s2')
                  r1 r2)
           spec.invocations)

let equivalent spec ~depth h1 h2 =
  match run spec h1, run spec h2 with
  | Some s1, Some s2 -> state_equiv spec ~depth s1 s2
  | None, _ | _, None -> false
