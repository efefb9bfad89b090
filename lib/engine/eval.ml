open Dpc_ndlog

exception Eval_error = Env.Eval_error

type binding = (string * Value.t) list

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

let match_atom (a : Ast.atom) tuple binding =
  if not (String.equal a.rel (Tuple.rel tuple)) then None
  else if List.length a.args <> Tuple.arity tuple then None
  else begin
    let rec go binding i = function
      | [] -> Some binding
      | Ast.Const c :: rest ->
          if Value.equal c (Tuple.arg tuple i) then go binding (i + 1) rest else None
      | Ast.Var v :: rest -> begin
          let actual = Tuple.arg tuple i in
          match List.assoc_opt v binding with
          | Some bound -> if Value.equal bound actual then go binding (i + 1) rest else None
          | None -> go ((v, actual) :: binding) (i + 1) rest
        end
    in
    go binding 0 a.args
  end

let arith op a b =
  match op, a, b with
  | Ast.Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Ast.Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Ast.Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Ast.Div, Value.Int _, Value.Int 0 -> fail "division by zero"
  | Ast.Div, Value.Int x, Value.Int y -> Value.Int (x / y)
  | Ast.Mod, Value.Int _, Value.Int 0 -> fail "modulo by zero"
  | Ast.Mod, Value.Int x, Value.Int y -> Value.Int (x mod y)
  | Ast.Add, Value.Str x, Value.Str y -> Value.Str (x ^ y)
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _ ->
      fail "arithmetic on non-numeric values (%s, %s)" (Value.to_string a)
        (Value.to_string b)

let rec eval_expr env binding = function
  | Ast.E_const c -> c
  | Ast.E_var v -> begin
      match List.assoc_opt v binding with
      | Some value -> value
      | None -> fail "unbound variable %s" v
    end
  | Ast.E_binop (op, a, b) -> arith op (eval_expr env binding a) (eval_expr env binding b)
  | Ast.E_call (f, args) -> begin
      match Env.lookup env f with
      | None -> fail "unknown function %s" f
      | Some fn -> fn (List.map (eval_expr env binding) args)
    end

let order a b =
  match a, b with
  | Value.Int x, Value.Int y -> Int.compare x y
  | Value.Str x, Value.Str y -> String.compare x y
  | (Value.Int _ | Value.Str _ | Value.Bool _ | Value.Addr _), _ ->
      fail "ordering comparison on %s and %s" (Value.to_string a) (Value.to_string b)

let compare_values op a b =
  match op with
  | Ast.Eq -> Value.equal a b
  | Ast.Neq -> not (Value.equal a b)
  | Ast.Lt -> order a b < 0
  | Ast.Leq -> order a b <= 0
  | Ast.Gt -> order a b > 0
  | Ast.Geq -> order a b >= 0

let instantiate (a : Ast.atom) binding =
  let values =
    List.map
      (function
        | Ast.Const c -> c
        | Ast.Var v -> begin
            match List.assoc_opt v binding with
            | Some value -> value
            | None -> fail "unbound head variable %s" v
          end)
      a.args
  in
  Tuple.make a.rel values

(* Process conditions left to right, branching on slow-atom joins.
   [lookup] supplies candidate tuples for a condition atom given the
   binding accumulated so far (an index probe or scan at runtime, the
   recorded tuple at re-derivation time). *)
let run_conditions env conds binding ~lookup =
  let rec go binding used cond_idx = function
    | [] -> [ (binding, List.rev used) ]
    | Ast.C_atom a :: rest ->
        List.concat_map
          (fun tuple ->
            match match_atom a tuple binding with
            | None -> []
            | Some binding -> go binding (tuple :: used) (cond_idx + 1) rest)
          (lookup cond_idx a binding)
    | Ast.C_cmp (op, lhs, rhs) :: rest ->
        if compare_values op (eval_expr env binding lhs) (eval_expr env binding rhs) then
          go binding used (cond_idx + 1) rest
        else []
    | Ast.C_assign (x, e) :: rest ->
        let value = eval_expr env binding e in
        begin
          match List.assoc_opt x binding with
          | Some bound -> if Value.equal bound value then go binding used (cond_idx + 1) rest else []
          | None -> go ((x, value) :: binding) used (cond_idx + 1) rest
        end
  in
  go binding [] 0 conds

let fire ~env ~db ~(rule : Ast.rule) ~event =
  match match_atom rule.event event [] with
  | None -> []
  | Some binding ->
      run_conditions env rule.conds binding ~lookup:(fun _ (a : Ast.atom) _ -> Db.scan db a.rel)
      |> List.map (fun (binding, slow) -> (instantiate rule.head binding, slow))

(* Compiled rule plans. [plan] numbers the rule's variables in order of
   first binding and turns the body into steps over that register file:

   - the event atom becomes per-position checks (constants), binds (first
     occurrences) and checks (repeated variables);
   - each condition atom becomes a {!Db.probe} whose key is read from the
     registers and constants already fixed when it is reached (the
     positions holding them), plus binds and checks for the rest;
   - each comparison or assignment becomes an expression over registers,
     in which a two-argument call of a {!Env.register2} function calls
     that form directly instead of building an argument list;
   - the head becomes an array of register and constant reads.

   The static bound set at each step is exactly the dynamic binding the
   reference evaluator above would hold there, so an expression that reads
   a variable before it is bound fails with the same error when it is
   evaluated. A head variable the body never binds fails at compile time
   (validated programs have none). *)
type expr =
  | X_const of Value.t
  | X_reg of int
  | X_unbound of string
  | X_binop of Ast.binop * expr * expr
  | X_call of string * (Value.t list -> Value.t) option * expr list
  | X_call2 of (Value.t -> Value.t -> Value.t) * expr * expr

type atom = {
  rel : string;
  arity : int;
  key_pos : int array;  (* fixed before the atom is matched *)
  key : Db.key_part array;
  bind_pos : int array;  (* first occurrences of fresh variables ... *)
  bind_reg : int array;
  check_pos : int array;  (* ... and their later occurrences *)
  check_reg : int array;
}

type filter =
  | Test of Ast.cmp * expr * expr
  | Let of int * expr  (* assignment to a fresh variable *)
  | Let_check of int * expr  (* assignment to a bound one: an equality test *)

type step = Join of atom | Filter of filter

type plan = {
  rule : Ast.rule;
  regs : int;
  event : atom;
  steps : step array;
  joins : int;
  head_rel : string;
  head : Db.key_part array;
}

let plan_rule p = p.rule

let plan ~env (rule : Ast.rule) =
  let slots = Hashtbl.create 16 in
  let reg v = Hashtbl.find_opt slots v in
  let fresh v =
    let r = Hashtbl.length slots in
    Hashtbl.add slots v r;
    r
  in
  let compile_atom (a : Ast.atom) =
    let key = ref [] and binds = ref [] and checks = ref [] and own = ref [] in
    List.iteri
      (fun i -> function
        | Ast.Const c -> key := (i, Db.Lit c) :: !key
        | Ast.Var v -> (
            match reg v with
            | Some r when List.mem v !own -> checks := (i, r) :: !checks
            | Some r -> key := (i, Db.Reg r) :: !key
            | None ->
                own := v :: !own;
                binds := (i, fresh v) :: !binds))
      a.args;
    let split l = (Array.of_list (List.rev_map fst l), Array.of_list (List.rev_map snd l)) in
    let key_pos, key = split !key and bind_pos, bind_reg = split !binds in
    let check_pos, check_reg = split !checks in
    { rel = a.rel; arity = List.length a.args; key_pos; key; bind_pos; bind_reg; check_pos;
      check_reg }
  in
  let rec compile_expr = function
    | Ast.E_const c -> X_const c
    | Ast.E_var v -> ( match reg v with Some r -> X_reg r | None -> X_unbound v)
    | Ast.E_binop (op, a, b) -> X_binop (op, compile_expr a, compile_expr b)
    | Ast.E_call (f, args) -> (
        match (Env.lookup2 env f, args) with
        | Some fn, [ a; b ] -> X_call2 (fn, compile_expr a, compile_expr b)
        | _ -> X_call (f, Env.lookup env f, List.map compile_expr args))
  in
  let event = compile_atom rule.event in
  let steps =
    List.map
      (function
        | Ast.C_atom a -> Join (compile_atom a)
        | Ast.C_cmp (op, lhs, rhs) -> Filter (Test (op, compile_expr lhs, compile_expr rhs))
        | Ast.C_assign (x, e) -> (
            let e = compile_expr e in
            match reg x with
            | Some r -> Filter (Let_check (r, e))
            | None -> Filter (Let (fresh x, e))))
      rule.conds
  in
  let head =
    List.map
      (function
        | Ast.Const c -> Db.Lit c
        | Ast.Var v -> (
            match reg v with Some r -> Db.Reg r | None -> fail "unbound head variable %s" v))
      rule.head.args
  in
  {
    rule;
    regs = Hashtbl.length slots;
    event;
    steps = Array.of_list steps;
    joins = List.length (List.filter (function Join _ -> true | Filter _ -> false) steps);
    head_rel = rule.head.rel;
    head = Array.of_list head;
  }

(* The same argument order as [eval_expr], so errors surface alike. *)
let rec eval regs = function
  | X_const c -> c
  | X_reg r -> regs.(r)
  | X_unbound v -> fail "unbound variable %s" v
  | X_binop (op, a, b) -> arith op (eval regs a) (eval regs b)
  | X_call (f, None, _) -> fail "unknown function %s" f
  | X_call (_, Some fn, args) -> fn (eval_args regs args)
  | X_call2 (fn, a, b) ->
      let a = eval regs a in
      fn a (eval regs b)

and eval_args regs = function
  | [] -> []
  | a :: rest ->
      let v = eval regs a in
      v :: eval_args regs rest

(* Whether [tuple] matches the atom's relation, arity and key. *)
let matches_key a regs tuple =
  String.equal a.rel (Tuple.rel tuple)
  && Tuple.arity tuple = a.arity
  && Db.key_matches ~positions:a.key_pos ~key:a.key regs tuple

(* Bind the atom's fresh variables from [tuple] and test their repeated
   occurrences; the key is the caller's business. *)
let bind a regs tuple =
  let args = Tuple.args tuple in
  Array.length args = a.arity
  && begin
       for i = 0 to Array.length a.bind_pos - 1 do
         regs.(a.bind_reg.(i)) <- args.(a.bind_pos.(i))
       done;
       let ok = ref true and i = ref 0 in
       while !ok && !i < Array.length a.check_pos do
         ok := Value.equal regs.(a.check_reg.(!i)) args.(a.check_pos.(!i));
         incr i
       done;
       !ok
     end

let unset = Value.Int 0

let instantiate_head p regs =
  let args = Array.make (Array.length p.head) unset in
  for i = 0 to Array.length p.head - 1 do
    args.(i) <- (match p.head.(i) with Db.Reg r -> regs.(r) | Db.Lit c -> c)
  done;
  Tuple.of_array p.head_rel args

let match_event p regs event = matches_key p.event regs event && bind p.event regs event

(* Whether a derivation survives a comparison or assignment. *)
let passes regs = function
  | Test (op, lhs, rhs) -> compare_values op (eval regs lhs) (eval regs rhs)
  | Let (r, e) ->
      regs.(r) <- eval regs e;
      true
  | Let_check (r, e) -> Value.equal regs.(r) (eval regs e)

(* A firing's working memory, reused by every firing at one node: the
   register file, the slow tuples joined on the current path (by join
   depth), and the derivations found, in order. *)
type scratch = {
  regs : Value.t array;
  used : Tuple.t array;
  mutable heads : Tuple.t array;
  mutable slows : Tuple.t list array;
  mutable count : int;
}

let no_head = Tuple.of_array "" [| Value.Addr 0 |]

let scratch plans =
  let regs = List.fold_left (fun m (p : plan) -> max m p.regs) 0 plans
  and joins = List.fold_left (fun m (p : plan) -> max m p.joins) 0 plans in
  { regs = Array.make regs unset; used = Array.make joins no_head; heads = Array.make 4 no_head;
    slows = Array.make 4 []; count = 0 }

let derived_head s i = s.heads.(i)
let derived_slow s i = s.slows.(i)

let push s head slow =
  if s.count = Array.length s.heads then begin
    let heads = Array.make (2 * s.count) no_head and slows = Array.make (2 * s.count) [] in
    Array.blit s.heads 0 heads 0 s.count;
    Array.blit s.slows 0 slows 0 s.count;
    s.heads <- heads;
    s.slows <- slows
  end;
  s.heads.(s.count) <- head;
  s.slows.(s.count) <- slow;
  s.count <- s.count + 1

(* The slow tuples of the path, oldest (first condition atom) first. *)
let rec slow_list used i acc = if i < 0 then acc else slow_list used (i - 1) (used.(i) :: acc)

(* Run the steps from [i] depth-first, [depth] slow tuples joined so far. *)
let rec run s p db i depth =
  if i = Array.length p.steps then
    push s (instantiate_head p s.regs) (slow_list s.used (depth - 1) [])
  else
    match p.steps.(i) with
    | Join a -> join s p db i depth a (Db.probe db ~rel:a.rel ~positions:a.key_pos ~key:a.key s.regs)
    | Filter f -> if passes s.regs f then run s p db (i + 1) depth

and join s p db i depth a = function
  | [] -> ()
  | tuple :: rest ->
      if bind a s.regs tuple then begin
        s.used.(depth) <- tuple;
        run s p db (i + 1) (depth + 1)
      end;
      join s p db i depth a rest

let fire_into s ~db ~plan ~event =
  s.count <- 0;
  if match_event plan s.regs event then run s plan db 0 0;
  s.count

let fire_planned ~db ~plan ~event =
  let s = scratch [ plan ] in
  List.init (fire_into s ~db ~plan ~event) (fun i -> (s.heads.(i), s.slows.(i)))

(* The steps once more, with the recorded slow tuples as the only
   candidates: a single path, so at most one derivation. *)
let rec rederive p regs i slow =
  if i = Array.length p.steps then true
  else
    match p.steps.(i), slow with
    | Join a, tuple :: rest ->
        matches_key a regs tuple && bind a regs tuple && rederive p regs (i + 1) rest
    | Join _, [] -> false
    | Filter f, _ -> passes regs f && rederive p regs (i + 1) slow

let fire_with_slow ~(plan : plan) ~event ~slow =
  let regs = Array.make plan.regs unset in
  if not (match_event plan regs event) then None
  else begin
    let n = List.length slow in
    if n <> plan.joins then
      fail "fire_with_slow: rule %s expects %d slow tuples, got %d" plan.rule.name plan.joins n;
    if rederive plan regs 0 slow then Some (instantiate_head plan regs) else None
  end

module For_testing = struct
  let match_atom = match_atom
  let fire = fire
  let fire_planned = fire_planned
end
