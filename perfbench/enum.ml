(* enum_dense: one complete Session.enumerate_resilience per op on
   dense-domain 2-chain instances, cycling over the instances' warm
   sessions.  Each family is 2^ties sets, so the cost is pivot-bound warm
   re-solves after appended no-good cuts — the Lp.Simplex/Lp.Basis regime
   rank_sparse barely touches.  The instances' sizes are fixed for the
   workload (the shape of Gen.dense_chain2), so the work per op does not
   swing with the seed. *)

open Relalg
open Resilience

let query = "R(x,y), S(y,z)"
let instances = 24
let groups = 8
let ties = 3 (* 8 optimal sets per instance *)

let make ~seed =
  let inst =
    Array.init instances (fun k ->
        Gen.dense_chain2 (Gen.rng seed (1 + k)) ~shape:(1 + k) ~groups ~ties ~lo:2 ~hi:6 ~domain:40)
  in
  let cold_pick = Random.State.int (Gen.rng seed 100) instances in
  (* The expected family in tuple ids: ids follow the text's line order,
     which is the same for every parse of the text. *)
  let expected db (d : Gen.dense) =
    let id (rel, args) = Option.get (Database.find db rel (Array.of_list args)) in
    List.sort compare (List.map (fun set -> List.sort compare (List.map id set)) d.Gen.families)
  in
  let setup () =
    let live =
      Array.map
        (fun d ->
          let db = Work.load d.Gen.text in
          let q = Cq_parser.parse_with db query in
          let s = Session.create Problem.Set q db in
          (db, q, s, Session.resilience s))
        inst
    in
    let want = Array.map2 (fun (db, _, _, _) d -> expected db d) live inst in
    let family_ok k = function
      | Session.Solved f ->
        f.Enumerate.exhausted && f.Enumerate.opt = inst.(k).Gen.opt
        && List.sort compare f.Enumerate.sets = want.(k)
      | _ -> false
    in
    let next i =
      let k = i mod instances in
      let _, _, s, _ = live.(k) in
      let r = ref None in
      {
        Work.kind = "read";
        run = (fun () -> r := Some (Session.enumerate_resilience ~jobs:1 s));
        check =
          (fun () ->
            match !r with
            | Some (Session.Solved f as o) ->
              let st = f.Enumerate.fstats in
              Work.tally.solves <- Work.tally.solves + st.Enumerate.solves;
              Work.tally.nodes <- Work.tally.nodes + st.Enumerate.nodes;
              Work.tally.pivots <-
                Work.tally.pivots + st.Enumerate.first_pivots + st.Enumerate.cut_pivots;
              Work.tally.refactors <- Work.tally.refactors + st.Enumerate.refactors;
              Work.tally.cuts <- Work.tally.cuts + st.Enumerate.cuts;
              Work.tally.cut_pivots <- Work.tally.cut_pivots + st.Enumerate.cut_pivots;
              family_ok k o
            | _ -> false);
      }
    in
    let first_ok () =
      Array.for_all2
        (fun (_, _, _, first) (d : Gen.dense) ->
          match first with
          | Session.Solved a ->
            Work.count_solve a.Session.res_stats;
            a.Session.res_value = d.Gen.opt
          | _ -> false)
        live inst
    in
    (* Every expected set really is a contingency, and the warm family
       equals the cold reference enumerator's on a seed-chosen instance. *)
    let finish () =
      Array.for_all2
        (fun (db, q, _, _) sets -> List.for_all (Solve.verify_contingency Problem.Set q db) sets)
        live want
      &&
      let db, q, _, _ = live.(cold_pick) in
      match Enumerate.resilience_cold Problem.Set q db with
      | Enumerate.Family f -> List.sort compare f.Enumerate.sets = want.(cold_pick)
      | _ -> false
    in
    { Work.next; first_ok; finish }
  in
  let programs () =
    Array.to_list inst
    |> List.map (fun d ->
           let db = Database_io.parse_string d.Gen.text in
           { Work.sem = Problem.Set; q = Cq_parser.parse_with db query; db; kind = `Shared })
  in
  { Work.setup; programs; data = Array.to_list (Array.map (fun d -> d.Gen.text) inst);
    warmup = 0; burst_ops = 1; epoch_ops = instances }
