(* Seed-determined workload inputs, rendered as the text the user paths
   parse (the Database_io line format).  The generators use only the
   stdlib PRNG, never the repository's own data generators, so a change to
   library code cannot silently change the benchmark's inputs. *)

let rng seed salt = Random.State.make [| 0x9e3779b9; seed; salt |]

let tuple_text rel args =
  Printf.sprintf "%s(%s)" rel (String.concat ", " (List.map string_of_int args))

let line ?(mult = 1) rel args =
  if mult > 1 then Printf.sprintf "%s x%d" (tuple_text rel args) mult else tuple_text rel args

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [k] distinct values of [0, n), in draw order. *)
let distinct st ~n k =
  let seen = Hashtbl.create (2 * k) in
  let out = ref [] in
  while List.length !out < k do
    let v = Random.State.int st n in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  done;
  List.rev !out

(* [count] distinct tuples of [arity] over [0, domain), sampled uniformly
   without replacement — the paper's random-instance protocol (Section 10). *)
let relation st ~domain ~arity count =
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  let n = ref 0 in
  while !n < count do
    let args = List.init arity (fun _ -> Random.State.int st domain) in
    if not (Hashtbl.mem seen args) then begin
      Hashtbl.add seen args ();
      out := args :: !out;
      incr n
    end
  done;
  List.rev !out

type atom = { rel : string; arity : int }

(* A random instance of a self-join-free query: [count] tuples per
   relation over [domain], at most two thirds of the relation's possible
   tuples; with [max_bag > 1] every tuple gets a multiplicity in
   [1, max_bag] (bag semantics). *)
let instance st ~domain ~count ?(max_bag = 1) atoms =
  let lines =
    List.concat_map
      (fun a ->
        let space = int_of_float (float_of_int domain ** float_of_int a.arity) in
        List.map
          (fun args ->
            let mult = if max_bag > 1 then 1 + Random.State.int st max_bag else 1 in
            line ~mult a.rel args)
          (relation st ~domain ~arity:a.arity (min count (2 * space / 3))))
      atoms
  in
  String.concat "\n" lines

(* Sparse 2-chain R(x,y), S(y,z): [count] tuples per relation over a domain
   of [2 * count], so most tuples sit in few witnesses.  The join structure
   is fixed by [shape], not by the seed: how many R and S tuples sit on
   each join value is drawn once from [rng 0 shape] ([count] uniform draws
   over the domain per relation), so every seed gives an isomorphic witness
   structure.  [st] draws which value plays each join
   value, the non-join values and the line order. *)
let shaped_chain2 st ~shape ~count =
  let domain = 2 * count in
  let sh = rng 0 shape in
  let degrees () =
    let d = Array.make domain 0 in
    for _ = 1 to count do
      let y = Random.State.int sh domain in
      d.(y) <- d.(y) + 1
    done;
    d
  in
  let dr = degrees () in
  let ds = degrees () in
  let label = Array.init domain Fun.id in
  shuffle st label;
  let lines = ref [] in
  let side rel deg pair =
    Array.iteri
      (fun y d -> List.iter (fun v -> lines := line rel (pair v label.(y)) :: !lines) (distinct st ~n:domain d))
      deg
  in
  side "R" dr (fun x y -> [ x; y ]);
  side "S" ds (fun z y -> [ y; z ]);
  let a = Array.of_list !lines in
  shuffle st a;
  String.concat "\n" (Array.to_list a)

type dense = {
  text : string;
  opt : int;
  families : (string * int list) list list;
      (** Every minimum contingency set, as (relation, args) tuples. *)
}

(* Dense 2-chain with a known family of minimum contingency sets.  Join
   group [y] has [r] tuples R(x,y) and [s] tuples S(y,z), so its witnesses
   form the complete bipartite graph K(r,s): a minimum cover deletes one
   whole side, the smaller, or either side when [r = s].  Exactly [ties]
   of the [groups] groups are tied, so every instance has exactly
   2^ties optimal sets of equal size.  Which groups tie and the sizes of
   both sides are drawn from [rng 0 shape], so enumeration cost does not
   depend on the seed; [st] draws the values and the line order. *)
let dense_chain2 st ~shape ~groups ~ties ~lo ~hi ~domain =
  let sh = rng 0 shape in
  let tied = Array.init groups (fun g -> g < ties) in
  shuffle sh tied;
  let pick () = lo + Random.State.int sh (hi - lo + 1) in
  let sides =
    Array.map
      (fun tie ->
        if tie then
          let r = pick () in
          (r, r)
        else
          let rec draw () =
            let r = pick () and s = pick () in
            if r = s then draw () else (r, s)
          in
          draw ())
      tied
  in
  let rs = Array.mapi (fun y (r, _) -> List.map (fun x -> ("R", [ x; y ])) (distinct st ~n:domain r)) sides in
  let ss = Array.mapi (fun y (_, s) -> List.map (fun z -> ("S", [ y; z ])) (distinct st ~n:domain s)) sides in
  let lines = Array.of_list (List.concat (Array.to_list rs @ Array.to_list ss)) in
  shuffle st lines;
  let text = String.concat "\n" (Array.to_list (Array.map (fun (rel, args) -> line rel args) lines)) in
  let opt = Array.fold_left (fun acc (r, s) -> acc + min r s) 0 sides in
  let families =
    Array.to_list sides
    |> List.mapi (fun y (r, s) ->
           if r < s then [ rs.(y) ] else if s < r then [ ss.(y) ] else [ rs.(y); ss.(y) ])
    |> List.fold_left
         (fun acc choices -> List.concat_map (fun set -> List.map (fun c -> c @ set) choices) acc)
         [ [] ]
  in
  { text; opt; families }
