(* serve_rw: JSON lines through Serve.Engine.handle_line on a loaded sparse
   2-chain of fixed join structure (Gen.shaped_chain2), metrics plane left
   at its default (armed).  A fixed cycle of one write and three asks — a
   resilience ask and two responsibility asks about seed-chosen witness
   tuples — so reads and writes share the engine's cached incremental
   session.  A write inserts a fresh tuple
   that joins the data, or deletes the oldest earlier insert, so the
   database size stays level.  The benchmark mirrors every write in its
   own database and checks each answer against it. *)

open Relalg
open Resilience
module J = Serve.Json

let query = "R(x,y), S(y,z)"
let count = 400 (* per relation: 800 tuples *)
let window = 4 (* live inserts before writes alternate with deletes *)
let cycle = [| `Write; `Res; `Rsp; `Rsp |]
let cold_every = 16 (* expected asks between cold cross-checks *)

let str s = J.Str s

let make ~seed =
  let text = Gen.shaped_chain2 (Gen.rng seed 1) ~shape:1 ~count in
  let db0 = Database_io.parse_string text in
  let q0 = Cq_parser.parse_with db0 query in
  let members = Hashtbl.create 512 in
  List.iter
    (fun w -> List.iter (fun t -> Hashtbl.replace members t ()) (Eval.tuple_set w))
    (Eval.witnesses q0 db0);
  let askable =
    Array.of_list
      (List.filter_map
         (fun info ->
           if Hashtbl.mem members info.Database.id then Some (Database_io.print_tuple db0 info.Database.id)
           else None)
         (Database.tuples db0))
  in
  let joins =
    (* Join values with tuples on both sides: an insert on one of them
       adds witnesses. *)
    Array.of_list
      (List.sort_uniq compare
         (List.filter_map
            (fun info ->
              if Hashtbl.mem members info.Database.id && info.Database.rel = "R" then
                Some info.Database.args.(1)
              else None)
            (Database.tuples db0)))
  in
  let setup () =
    let engine = Serve.Engine.create () in
    let send j = J.of_string (Serve.Engine.handle_line engine (J.to_string j)) in
    ignore (send (J.Obj [ ("op", str "load"); ("data", str text) ]));
    let ask_res = J.Obj [ ("op", str "resilience"); ("query", str query) ] in
    let ask_rsp t = J.Obj [ ("op", str "responsibility"); ("query", str query); ("tuple", str t) ] in
    let first = [ send ask_res; send (ask_rsp askable.(0)) ] in
    (* Benchmark-side state, built on first use so it stays out of set-up. *)
    let mirror =
      lazy
        (let db = Database_io.parse_string text in
         let ids = Hashtbl.create 1024 in
         List.iter
           (fun info -> Hashtbl.replace ids (Database_io.print_tuple db info.Database.id) info.Database.id)
           (Database.tuples db);
         (db, Cq_parser.parse_with db query, ids))
    in
    let st = Gen.rng seed 2 in
    let inserted = Queue.create () in
    let fresh = ref 0 in
    let result r =
      match (J.member "ok" r, J.member "result" r) with
      | Some (J.Bool true), Some res -> Some res
      | _ -> None
    in
    let member_int k r = Option.bind (J.member k r) J.to_int_opt in
    (* A solved answer: the value must equal the weight of a verified
       contingency (set semantics: its size).  Its solver stats feed the
       exact counts. *)
    let answer r verify =
      match result r with
      | Some res when J.member "status" res = Some (str "solved") -> (
        let stat k = Option.value ~default:0 (Option.bind (J.member "stats" res) (member_int k)) in
        Work.tally.solves <- Work.tally.solves + 1;
        Work.tally.pivots <- Work.tally.pivots + stat "pivots";
        Work.tally.nodes <- Work.tally.nodes + stat "nodes";
        Work.tally.refactors <- Work.tally.refactors + stat "refactors";
        let _, _, ids = Lazy.force mirror in
        let set =
          Option.map
            (List.map (fun t -> Option.bind (J.to_string_opt t) (Hashtbl.find_opt ids)))
            (Option.bind (J.member "contingency" res) J.to_list_opt)
        in
        match (member_int "value" res, set) with
        | Some v, Some set when List.for_all Option.is_some set ->
          let set = List.map Option.get set in
          if v = List.length set && verify set then Some v else None
        | _ -> None)
      | _ -> None
    in
    let cold_res () =
      let db, q, _ = Lazy.force mirror in
      match Solve.resilience Problem.Set q db with Solve.Solved a -> Some a.Solve.res_value | _ -> None
    in
    let cold_rsp t =
      let db, q, _ = Lazy.force mirror in
      match Solve.responsibility Problem.Set q db t with
      | Solve.Solved a -> Some a.Solve.rsp_value
      | _ -> None
    in
    let check_res r =
      let db, q, _ = Lazy.force mirror in
      answer r (fun set -> Solve.verify_contingency Problem.Set q db set)
    in
    let check_rsp t r =
      let db, q, ids = Lazy.force mirror in
      let tid = Hashtbl.find ids t in
      (tid, answer r (fun set -> Solve.verify_responsibility_set q db tid set))
    in
    let writes = ref 0 in
    let write () =
      let db, _, ids = Lazy.force mirror in
      incr writes;
      if Queue.length inserted < window || !writes mod 2 = 0 then begin
        incr fresh;
        let y = joins.(Random.State.int st (Array.length joins)) in
        let tuple = Gen.tuple_text "R" [ 1_000_000 + !fresh; y ] in
        Queue.add tuple inserted;
        ( "insert",
          J.Obj [ ("op", str "insert"); ("tuple", str tuple) ],
          fun r ->
            let id = Option.get (Database_io.parse_line db tuple) in
            Hashtbl.replace ids (Database_io.print_tuple db id) id;
            Option.bind (result r) (member_int "tuple_id") = Some id )
      end
      else begin
        let tuple = Queue.pop inserted in
        let id = Hashtbl.find ids tuple in
        ( "delete",
          J.Obj [ ("op", str "delete"); ("tuple", str tuple) ],
          fun r ->
            Database.remove db id;
            Hashtbl.remove ids tuple;
            Option.bind (result r) (member_int "tuple_id") = Some id )
      end
    in
    let next i =
      let kind, request, check =
        match cycle.(i mod Array.length cycle) with
        | `Write -> write ()
        | `Res ->
          let cold = Random.State.int st cold_every = 0 in
          ( "read",
            ask_res,
            fun r ->
              match check_res r with
              | Some v -> (not cold) || cold_res () = Some v
              | None -> false )
        | `Rsp ->
          let t = askable.(Random.State.int st (Array.length askable)) in
          let cold = Random.State.int st cold_every = 0 in
          ( "read",
            ask_rsp t,
            fun r ->
              match check_rsp t r with
              | tid, Some v -> (not cold) || cold_rsp tid = Some v
              | _, None -> false )
      in
      let reply = ref J.Null in
      let line = ref "" in
      {
        Work.kind;
        run =
          (fun () ->
            line := Obs.Trace.with_span "serve.serialise" (fun () -> J.to_string request);
            let resp =
              Obs.Trace.with_span "serve.handle_line" (fun () -> Serve.Engine.handle_line engine !line)
            in
            reply := Obs.Trace.with_span "serve.deserialise" (fun () -> J.of_string resp));
        check =
          (fun () ->
            if Obs.Sink.active () then begin
              let _, dt = Spans.timed "serve.protocol.parse" (fun () -> Serve.Protocol.parse_request !line) in
              Work.sample "serve.protocol.parse_us" (dt *. 1e6)
            end;
            check !reply);
      }
    in
    let first_ok () =
      match first with
      | [ r; p ] -> check_res r <> None && snd (check_rsp askable.(0) p) <> None
      | _ -> false
    in
    let finish () =
      (match result (send (J.Obj [ ("op", str "stats") ])) with
      | Some s -> (
        match (member_int "hits" s, member_int "misses" s) with
        | Some h, Some m when h + m > 0 ->
          Work.sample "serve.engine.cache_hit_share" (float_of_int h /. float_of_int (h + m))
        | _ -> ())
      | None -> ());
      (* The final state, asked once more and solved cold on the mirror. *)
      let t = askable.(Random.State.int st (Array.length askable)) in
      (match check_res (send ask_res) with Some v -> cold_res () = Some v | None -> false)
      &&
      match check_rsp t (send (ask_rsp t)) with
      | tid, Some v -> cold_rsp tid = Some v
      | _, None -> false
    in
    { Work.next; first_ok; finish }
  in
  let programs () =
    let db = Database_io.parse_string text in
    [ { Work.sem = Problem.Set; q = Cq_parser.parse_with db query; db; kind = `Res } ]
  in
  (* Writes are the serve ops themselves, so no load samples are needed. *)
  { Work.setup; programs; data = []; warmup = 0; burst_ops = 2 * Array.length cycle;
    epoch_ops = 160 * Array.length cycle }
