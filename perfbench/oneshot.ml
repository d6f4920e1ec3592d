(* oneshot_paper: the one-shot CLI path — parse the data text and the
   query, then a cold Solve.resilience or Solve.responsibility — over a
   seed-generated list of the paper's query classes under set and bag
   semantics.  PTIME chains and confluences are certified by Lp.Struct
   with zero nodes; triangles and 3-stars are NP-hard and go through
   branch-and-bound.  The list cycles in a fixed order; only the tuples
   inside each instance depend on the seed, so the mix of classes, and
   with it the latency distribution, is the same for every seed. *)

open Relalg
open Resilience

(* [rsp_count] sizes the responsibility instances: on the PTIME classes a
   responsibility ILP can branch where resilience is certified, so those
   instances are smaller to keep every item within a few milliseconds. *)
type cls = {
  name : string;
  query : string;
  atoms : Gen.atom list;
  domain : int;
  count : int;
  rsp_count : int;
}

let a rel arity = { Gen.rel; arity }

let classes =
  [
    { name = "chain"; query = "R(x,y), S(y,z), T(z,u)";
      atoms = [ a "R" 2; a "S" 2; a "T" 2 ]; domain = 24; count = 45; rsp_count = 30 };
    { name = "confluence"; query = "A(x), R(x,y), S(z,y), B(z)";
      atoms = [ a "A" 1; a "R" 2; a "S" 2; a "B" 1 ]; domain = 24; count = 60; rsp_count = 40 };
    { name = "triangle"; query = "R(x,y), S(y,z), T(z,x)";
      atoms = [ a "R" 2; a "S" 2; a "T" 2 ]; domain = 14; count = 60; rsp_count = 60 };
    { name = "star"; query = "R(x), S(y), T(z), W(x,y,z)";
      atoms = [ a "R" 1; a "S" 1; a "T" 1; a "W" 3 ]; domain = 8; count = 240; rsp_count = 240 };
  ]

let per_cell = 16 (* instances per (class, semantics, question) *)

type item = {
  cls : cls;
  sem : Problem.semantics;
  text : string;
  tuple : (string * int array) option;  (** [None]: resilience. *)
}

(* Draw instances until the query holds; a responsibility question asks
   about a seed-chosen tuple of some witness. *)
let item st cls sem ~rsp =
  let max_bag = match sem with Problem.Set -> 1 | Problem.Bag -> 3 in
  let rec draw () =
    let count = if rsp then cls.rsp_count else cls.count in
    let text = Gen.instance st ~domain:cls.domain ~count ~max_bag cls.atoms in
    let db = Database_io.parse_string text in
    let q = Cq_parser.parse_with db cls.query in
    match Eval.witnesses q db with
    | [] -> draw ()
    | ws ->
      let tuple =
        if not rsp then None
        else begin
          let members =
            List.sort_uniq compare
              (List.concat_map
                 (fun w ->
                   List.map
                     (fun t ->
                       let info = Database.tuple db t in
                       (info.Database.rel, info.Database.args))
                     (Eval.tuple_set w))
                 ws)
          in
          Some (List.nth members (Random.State.int st (List.length members)))
        end
      in
      { cls; sem; text; tuple }
  in
  draw ()

let make ~seed =
  let st = Gen.rng seed 1 in
  let items =
    Array.of_list
      (List.concat_map
         (fun cls ->
           List.concat_map
             (fun sem ->
               List.concat_map
                 (fun rsp -> List.init per_cell (fun _ -> item st cls sem ~rsp))
                 [ false; true ])
             [ Problem.Set; Problem.Bag ])
         classes)
  in
  let n = Array.length items in
  let warm_sample = Work.sample_indices (Gen.rng seed 2) ~n 16 in
  let parse it =
    let db = Work.load it.text in
    (db, Cq_parser.parse_with db it.cls.query)
  in
  let tid db (rel, args) = Option.get (Database.find db rel args) in
  let solve it db q =
    Obs.Trace.with_span "solve" (fun () ->
        match it.tuple with
        | None -> (
          match Solve.resilience it.sem q db with
          | Solve.Solved a -> Ok (a.Solve.res_value, a.Solve.contingency, a.Solve.res_stats)
          | _ -> Error ())
        | Some tu -> (
          match Solve.responsibility it.sem q db (tid db tu) with
          | Solve.Solved a -> Ok (a.Solve.rsp_value, a.Solve.responsibility_set, a.Solve.rsp_stats)
          | _ -> Error ()))
  in
  let verified = Work.memo () in
  let agree, value_of = Work.consistent () in
  let check i it (db, q, r) =
    match r with
    | Error () -> false
    | Ok (v, set, stats) ->
      Work.count_solve stats;
      v = Work.weight it.sem db set
      && agree i v
      && verified i set (fun () ->
             match it.tuple with
             | None -> Solve.verify_contingency it.sem q db set
             | Some tu -> Solve.verify_responsibility_set q db (tid db tu) set)
  in
  let op i =
    let it = items.(i mod n) in
    let r = ref None in
    {
      Work.kind = "read";
      run =
        (fun () ->
          let db, q =
            Obs.Trace.with_span "parse" (fun () ->
                let db = Database_io.parse_string it.text in
                (db, Cq_parser.parse_with db it.cls.query))
          in
          r := Some (db, q, solve it db q));
      check = (fun () -> match !r with Some x -> check (i mod n) it x | None -> false);
    }
  in
  let setup () =
    Array.iter (fun it -> ignore (parse it)) items;
    let first = op 0 in
    first.Work.run ();
    (* Cold against warm: a fresh Session per sampled item. *)
    let finish () =
      List.for_all
        (fun i ->
          let it = items.(i) in
          let db, q = parse it in
          let s = Session.create it.sem q db in
          let warm =
            match it.tuple with
            | None -> (
              match Session.resilience s with Session.Solved a -> Some a.Session.res_value | _ -> None)
            | Some tu -> (
              match Session.responsibility s (tid db tu) with
              | Session.Solved a -> Some a.Session.rsp_value
              | _ -> None)
          in
          let cold =
            match value_of i with
            | Some v -> Ok v
            | None -> (
              match solve it db q with Ok (v, _, _) -> Ok v | Error () -> Error ())
          in
          warm <> None && cold = Ok (Option.get warm))
        warm_sample
    in
    { Work.next = op; first_ok = first.Work.check; finish }
  in
  let programs () =
    Array.to_list items
    |> List.map (fun it ->
           let db = Database_io.parse_string it.text in
           let q = Cq_parser.parse_with db it.cls.query in
           let kind = match it.tuple with None -> `Res | Some tu -> `Rsp (tid db tu) in
           { Work.sem = it.sem; q; db; kind })
  in
  { Work.setup; programs; data = Array.to_list (Array.map (fun it -> it.text) items);
    warmup = 0; burst_ops = 20; epoch_ops = 5 * n }
