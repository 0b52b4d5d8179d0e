open Atomrep_clock

type t = {
  committed : (Lamport.Timestamp.t * Log.entry) list;
  tentative : Log.entry list;
}

let classify log =
  let entries = Log.entries log in
  let committed, tentative =
    List.fold_left
      (fun (committed, tentative) (e : Log.entry) ->
        if Log.is_aborted log e.action then (committed, tentative)
        else
          match Log.commit_ts log e.action with
          | Some cts -> ((cts, e) :: committed, tentative)
          | None -> (committed, e :: tentative))
      ([], []) entries
  in
  let committed =
    List.sort
      (fun (t1, e1) (t2, e2) ->
        let c = Lamport.Timestamp.compare t1 t2 in
        if c <> 0 then c else Lamport.Timestamp.compare e1.Log.ets e2.Log.ets)
      committed
  in
  let tentative =
    List.sort (fun e1 e2 -> Lamport.Timestamp.compare e1.Log.ets e2.Log.ets) tentative
  in
  { committed; tentative }

let committed_events t = List.map (fun (_, e) -> e.Log.event) t.committed

let static_timeline t ~insert ~include_tentative =
  let base =
    List.map (fun (_, e) -> e) t.committed
    @ (if include_tentative then t.tentative else [])
  in
  let keyed =
    List.map (fun (e : Log.entry) -> ((e.begin_ts, e.seq), e.event)) base
  in
  let keyed =
    match insert with
    | None -> keyed
    | Some (bts, seq, event) -> ((bts, seq), event) :: keyed
  in
  List.sort
    (fun ((b1, s1), _) ((b2, s2), _) ->
      let c = Lamport.Timestamp.compare b1 b2 in
      if c <> 0 then c else Int.compare s1 s2)
    keyed
  |> List.map snd
