(* Tests for dpc_ndlog: values, tuples, lexer, parser, pretty-printer
   round-trips, and the DELP validator on the paper's programs. *)

open Dpc_ndlog

let check = Alcotest.check
let checks = Alcotest.check Alcotest.string

let forwarding_src =
  {|
  // Packet forwarding (paper Figure 1).
  r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
  r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
  |}

let dns_src =
  {|
  // DNS resolution (paper Figure 19).
  r1 request(@RT, URL, HST, RQID) :- url(@HST, URL, RQID), rootServer(@HST, RT).
  r2 request(@SV, URL, HST, RQID) :- request(@X, URL, HST, RQID),
                                     nameServer(@X, DM, SV),
                                     f_isSubDomain(DM, URL) == true.
  r3 dnsResult(@X, URL, IPADDR, HST, RQID) :- request(@X, URL, HST, RQID),
                                              addressRecord(@X, URL, IPADDR).
  r4 reply(@HST, URL, IPADDR, RQID) :- dnsResult(@X, URL, IPADDR, HST, RQID).
  |}

let parse_ok ?(name = "p") src =
  match Parser.parse_program ~name src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

let validate_ok src =
  match Delp.validate (parse_ok src) with
  | Ok d -> d
  | Error e -> Alcotest.failf "validation error: %s" (Delp.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_canonical_distinct () =
  let vs =
    [ Value.Int 1; Value.Str "1"; Value.Bool true; Value.Addr 1; Value.Int 0; Value.Str "" ]
  in
  let canons = List.map Value.canonical vs in
  let distinct = List.sort_uniq String.compare canons in
  check Alcotest.int "all canonical forms distinct" (List.length vs) (List.length distinct)

let test_value_canonical_length_prefixed () =
  (* "ab" + "c" vs "a" + "bc" style collisions must be impossible. *)
  check Alcotest.bool "no concat ambiguity" false
    (String.equal
       (Value.canonical (Value.Str "ab") ^ Value.canonical (Value.Str "c"))
       (Value.canonical (Value.Str "a") ^ Value.canonical (Value.Str "bc")))

let test_value_accessors () =
  check Alcotest.int "addr" 3 (Value.addr_exn (Value.Addr 3));
  check Alcotest.int "int" 5 (Value.int_exn (Value.Int 5));
  check Alcotest.bool "bool" true (Value.bool_exn (Value.Bool true));
  checks "str" "x" (Value.str_exn (Value.Str "x"));
  Alcotest.check_raises "addr_exn on int" (Invalid_argument "Value.addr_exn: not an address")
    (fun () -> ignore (Value.addr_exn (Value.Int 1)))

let prop_value_serialize_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Value.Int i) int;
          map (fun s -> Value.Str s) (string_size (int_bound 30));
          map (fun b -> Value.Bool b) bool;
          map (fun a -> Value.Addr a) (int_bound 1000);
        ])
  in
  QCheck.Test.make ~name:"value serialize round-trip" ~count:300
    (QCheck.make value_gen) (fun v ->
      let w = Dpc_util.Serialize.writer () in
      Value.serialize w v;
      Value.equal v (Value.deserialize (Dpc_util.Serialize.reader (Dpc_util.Serialize.contents w))))

(* ------------------------------------------------------------------ *)
(* Tuple *)

let packet_tuple =
  Tuple.make "packet" [ Value.Addr 1; Value.Addr 1; Value.Addr 3; Value.Str "data" ]

let test_tuple_basics () =
  checks "rel" "packet" (Tuple.rel packet_tuple);
  check Alcotest.int "arity" 4 (Tuple.arity packet_tuple);
  check Alcotest.int "loc" 1 (Tuple.loc packet_tuple);
  checks "pp" "packet(@n1, n1, n3, \"data\")" (Tuple.to_string packet_tuple)

let test_tuple_requires_location () =
  Alcotest.check_raises "first arg must be an address"
    (Invalid_argument "Tuple.make: first attribute must be a node address") (fun () ->
      ignore (Tuple.make "packet" [ Value.Int 1 ]));
  Alcotest.check_raises "empty args" (Invalid_argument "Tuple.make: empty argument list")
    (fun () -> ignore (Tuple.make "packet" []))

let test_tuple_canonical_sensitivity () =
  let t1 = Tuple.make "packet" [ Value.Addr 1; Value.Str "data" ] in
  let t2 = Tuple.make "packet" [ Value.Addr 1; Value.Str "date" ] in
  let t3 = Tuple.make "packem" [ Value.Addr 1; Value.Str "data" ] in
  check Alcotest.bool "payload matters" false
    (String.equal (Tuple.canonical t1) (Tuple.canonical t2));
  check Alcotest.bool "relation matters" false
    (String.equal (Tuple.canonical t1) (Tuple.canonical t3))

(* The digest contract with payload interning, against a reference
   rendering built here from [Value.canonical] and [Sha1.digest_string]:
   for tuples whose [Str] payloads are at most [Value.payload_inline_max]
   bytes the digest is exactly sha1(canonical); larger payloads contribute
   "h:" ^ length ^ ":" ^ raw payload digest in place of their canonical
   rendering. Both memoization orders must agree, and payloads spanning
   SHA-1 blocks, the 64/65-byte interning boundary, negative ints and
   bools are covered. *)
let test_tuple_digest_contract () =
  let sha1 = Dpc_util.Sha1.digest_string in
  let reference_piece = function
    | Value.Str p when String.length p > 64 ->
        "h:" ^ string_of_int (String.length p) ^ ":" ^ Dpc_util.Sha1.to_raw (sha1 p)
    | v -> Value.canonical v
  in
  let reference args =
    sha1 ("packet(" ^ String.concat "," (List.map reference_piece args) ^ ")")
  in
  check Alcotest.int "interning threshold" 64 Value.payload_inline_max;
  List.iter
    (fun (n, b) ->
      List.iter
        (fun payload ->
          let args = [ Value.Addr 3; Value.Int n; Value.Bool b; Value.Str payload ] in
          let mk () = Tuple.make "packet" args in
          let a = mk () in
          let da = Tuple.digest a in
          check Alcotest.bool "digest matches the reference rendering" true
            (Dpc_util.Sha1.equal da (reference args));
          (* Small payloads keep the historical vid = sha1(canonical). *)
          if String.length payload <= Value.payload_inline_max then
            check Alcotest.bool "inline digest = sha1 canonical" true
              (Dpc_util.Sha1.equal da (sha1 (Tuple.canonical a)));
          (* canonical first: the memoized-string path must agree *)
          let c = mk () in
          ignore (Tuple.canonical c);
          check Alcotest.bool "memoized digest agrees" true
            (Dpc_util.Sha1.equal (Tuple.digest c) da);
          (* the interned digest is cached per domain; a repeat build agrees *)
          check Alcotest.bool "repeat digest agrees" true
            (Dpc_util.Sha1.equal (Tuple.digest (mk ())) da);
          (* every value streams exactly its canonical bytes *)
          List.iter
            (fun v ->
              let s = Dpc_util.Sha1.start () in
              Value.add_canonical s v;
              check Alcotest.bool "add_canonical streams canonical" true
                (Dpc_util.Sha1.equal (Dpc_util.Sha1.finish s) (sha1 (Value.canonical v))))
            args)
        [ ""; "x"; String.make 55 'p'; String.make 64 'q'; String.make 65 's'; String.make 500 'r' ])
    [ (7, true); (-1, false); (-42, true); (min_int, false); (max_int, true); (0, false) ]

let test_tuple_serialize_roundtrip () =
  let w = Dpc_util.Serialize.writer () in
  Tuple.serialize w packet_tuple;
  let t = Tuple.deserialize (Dpc_util.Serialize.reader (Dpc_util.Serialize.contents w)) in
  check Alcotest.bool "round-trip" true (Tuple.equal packet_tuple t)

let test_tuple_wire_size_grows_with_payload () =
  let small = Tuple.make "p" [ Value.Addr 1; Value.Str "x" ] in
  let large = Tuple.make "p" [ Value.Addr 1; Value.Str (String.make 500 'x') ] in
  check Alcotest.bool "payload grows wire size" true
    (Tuple.wire_size large > Tuple.wire_size small + 490)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_operators () =
  match Lexer.tokenize ":- := == != < <= > >= + - * / % @ ( ) , ." with
  | Error e -> Alcotest.failf "lex error: %s" e.message
  | Ok toks ->
      let kinds = List.map (fun (t : Lexer.located) -> t.tok) toks in
      check Alcotest.int "token count (incl. eof)" 19 (List.length kinds);
      check Alcotest.bool "ends with eof" true
        (match List.rev kinds with Lexer.T_eof :: _ -> true | _ -> false)

let test_lexer_idents_and_vars () =
  match Lexer.tokenize "packet Route f_isSubDomain X true false" with
  | Error e -> Alcotest.failf "lex error: %s" e.message
  | Ok toks -> begin
      match List.map (fun (t : Lexer.located) -> t.tok) toks with
      | [
       Lexer.T_ident "packet";
       Lexer.T_var "Route";
       Lexer.T_ident "f_isSubDomain";
       Lexer.T_var "X";
       Lexer.T_bool true;
       Lexer.T_bool false;
       Lexer.T_eof;
      ] ->
          ()
      | _ -> Alcotest.fail "unexpected token stream"
    end

let test_lexer_strings_and_comments () =
  match Lexer.tokenize "\"a\\nb\" // comment\n42" with
  | Error e -> Alcotest.failf "lex error: %s" e.message
  | Ok toks -> begin
      match List.map (fun (t : Lexer.located) -> t.tok) toks with
      | [ Lexer.T_str "a\nb"; Lexer.T_int 42; Lexer.T_eof ] -> ()
      | _ -> Alcotest.fail "unexpected token stream"
    end

let test_lexer_error_position () =
  match Lexer.tokenize "abc\n  $" with
  | Ok _ -> Alcotest.fail "expected a lex error"
  | Error e ->
      check Alcotest.int "line" 2 e.line;
      check Alcotest.int "col" 3 e.col

let test_lexer_unterminated_string () =
  match Lexer.tokenize "\"oops" with
  | Ok _ -> Alcotest.fail "expected a lex error"
  | Error e -> checks "message" "unterminated string literal" e.message

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_forwarding () =
  let p = parse_ok forwarding_src in
  check Alcotest.int "two rules" 2 (List.length p.rules);
  let r1 = List.nth p.rules 0 in
  checks "rule name" "r1" r1.name;
  checks "head rel" "packet" r1.head.rel;
  checks "event rel" "packet" r1.event.rel;
  check Alcotest.int "one condition" 1 (List.length r1.conds);
  let r2 = List.nth p.rules 1 in
  match r2.conds with
  | [ Ast.C_cmp (Ast.Eq, Ast.E_var "D", Ast.E_var "L") ] -> ()
  | _ -> Alcotest.fail "r2 condition should be D == L"

let test_parse_dns () =
  let p = parse_ok dns_src in
  check Alcotest.int "four rules" 4 (List.length p.rules);
  let r2 = List.nth p.rules 1 in
  match r2.conds with
  | [ Ast.C_atom ns; Ast.C_cmp (Ast.Eq, Ast.E_call ("f_isSubDomain", [ _; _ ]), rhs) ] ->
      checks "slow atom" "nameServer" ns.rel;
      check Alcotest.bool "rhs is true" true (rhs = Ast.E_const (Value.Bool true))
  | _ -> Alcotest.fail "r2 should have a nameServer join and a UDF comparison"

let test_parse_assignment () =
  match Parser.parse_rule "r2 recv(@L, S, N, DT) :- packet(@L, S, D, DT), N := L + 2." with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok r -> begin
      match r.conds with
      | [ Ast.C_assign ("N", Ast.E_binop (Ast.Add, Ast.E_var "L", Ast.E_const (Value.Int 2))) ]
        ->
          ()
      | _ -> Alcotest.fail "expected the assignment N := L + 2"
    end

let test_parse_expression_precedence () =
  match Parser.parse_rule "r1 p(@L, X) :- q(@L, A, B, C), X := A + B * C." with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok r -> begin
      match r.conds with
      | [ Ast.C_assign ("X", Ast.E_binop (Ast.Add, Ast.E_var "A", Ast.E_binop (Ast.Mul, _, _))) ]
        ->
          ()
      | _ -> Alcotest.fail "B * C should bind tighter than +"
    end

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

let test_parse_missing_at () =
  match Parser.parse_rule "r1 p(L) :- q(@L)." with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> check Alcotest.bool "mentions location specifier" true
                 (contains_substring e "location")

let test_parse_event_must_be_atom () =
  match Parser.parse_rule "r1 p(@L, X) :- X == 1, q(@L, X)." with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

let test_parse_negative_literal () =
  match Parser.parse_rule "r1 p(@L, X) :- q(@L, Y), X := Y + -3." with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok r -> begin
      match r.conds with
      | [ Ast.C_assign ("X", Ast.E_binop (Ast.Add, _, Ast.E_const (Value.Int (-3)))) ] -> ()
      | _ -> Alcotest.fail "expected Y + -3"
    end

let test_parser_error_reports_position () =
  match Parser.parse_program ~name:"bad" "r1 p(@L) :- q(@L)" with
  | Ok _ -> Alcotest.fail "expected a parse error (missing final dot)"
  | Error e ->
      check Alcotest.bool "has position prefix" true
        (String.contains e ':' && String.length e > 4)

(* ------------------------------------------------------------------ *)
(* Pretty round-trip *)

let test_pretty_roundtrip_forwarding () =
  let p = parse_ok forwarding_src in
  let printed = Pretty.program_to_string p in
  let p2 = parse_ok printed in
  checks "round-trip stable" printed (Pretty.program_to_string p2)

let test_pretty_roundtrip_dns () =
  let p = parse_ok dns_src in
  let printed = Pretty.program_to_string p in
  let p2 = parse_ok printed in
  checks "round-trip stable" printed (Pretty.program_to_string p2)

let test_pretty_parenthesizes_nested_binops () =
  match Parser.parse_rule "r1 p(@L, X) :- q(@L, A, B, C), X := (A + B) * C." with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok r ->
      let printed = Pretty.rule_to_string r in
      begin
        match Parser.parse_rule printed with
        | Error e -> Alcotest.failf "re-parse error on %S: %s" printed e
        | Ok r2 -> checks "tree preserved" printed (Pretty.rule_to_string r2)
      end

(* ------------------------------------------------------------------ *)
(* DELP validation *)

let test_delp_forwarding () =
  let d = validate_ok forwarding_src in
  checks "input event" "packet" d.input_event;
  checks "output" "recv" d.output_rel;
  check (Alcotest.list Alcotest.string) "slow rels" [ "route" ] d.slow_rels;
  check (Alcotest.list Alcotest.string) "event rels" [ "packet"; "recv" ] d.event_rels;
  check Alcotest.int "packet arity" 4 (Delp.arity d "packet");
  check Alcotest.bool "route is slow" true (Delp.is_slow d "route");
  check Alcotest.bool "packet is event" true (Delp.is_event d "packet");
  check Alcotest.int "packet triggers two rules" 2
    (List.length (Delp.rules_for_event d "packet"))

let test_delp_dns () =
  let d = validate_ok dns_src in
  checks "input event" "url" d.input_event;
  checks "output" "reply" d.output_rel;
  check (Alcotest.list Alcotest.string) "slow rels"
    [ "rootServer"; "nameServer"; "addressRecord" ]
    d.slow_rels;
  check Alcotest.int "event arity" 3 (Delp.event_arity d)

let test_delp_rejects_broken_chain () =
  let src =
    {|
    r1 a(@L, X) :- e(@L, X), s(@L, X).
    r2 b(@L, X) :- c(@L, X), s(@L, X).
    |}
  in
  match Delp.validate (parse_ok src) with
  | Ok _ -> Alcotest.fail "expected Not_chained"
  | Error (Delp.Not_chained { rule; head_of_previous; event }) ->
      checks "rule" "r2" rule;
      checks "head" "a" head_of_previous;
      checks "event" "c" event
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

let test_delp_rejects_head_as_condition () =
  let src =
    {|
    r1 a(@L, X) :- e(@L, X), s(@L, X).
    r2 b(@L, X) :- a(@L, X), a(@L, X).
    |}
  in
  match Delp.validate (parse_ok src) with
  | Ok _ -> Alcotest.fail "expected Event_rel_in_conditions"
  | Error (Delp.Event_rel_in_conditions { rel; _ }) -> checks "rel" "a" rel
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

let test_delp_rejects_arity_mismatch () =
  let src =
    {|
    r1 a(@L, X) :- e(@L, X), s(@L, X).
    r2 b(@L) :- a(@L, X), s(@L, X, X).
    |}
  in
  match Delp.validate (parse_ok src) with
  | Ok _ -> Alcotest.fail "expected Arity_mismatch"
  | Error (Delp.Arity_mismatch { rel; _ }) -> checks "rel" "s" rel
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

let test_delp_rejects_unbound_head_var () =
  let src = "r1 a(@L, Y) :- e(@L, X)." in
  match Delp.validate (parse_ok src) with
  | Ok _ -> Alcotest.fail "expected Unbound_head_var"
  | Error (Delp.Unbound_head_var { var; _ }) -> checks "var" "Y" var
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

let test_delp_rejects_duplicate_rule_names () =
  let src =
    {|
    r1 a(@L, X) :- e(@L, X).
    r1 b(@L, X) :- a(@L, X).
    |}
  in
  match Delp.validate (parse_ok src) with
  | Ok _ -> Alcotest.fail "expected Duplicate_rule_name"
  | Error (Delp.Duplicate_rule_name name) -> checks "name" "r1" name
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

let test_delp_rejects_empty () =
  match Delp.validate { Ast.prog_name = "empty"; rules = [] } with
  | Ok _ -> Alcotest.fail "expected Empty_program"
  | Error Delp.Empty_program -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

let test_delp_assignment_binds_head_var () =
  let src = "r1 a(@L, Y) :- e(@L, X), Y := X + 1." in
  ignore (validate_ok src)

let test_delp_rejects_unbound_assign () =
  let src = "r1 a(@L, Y) :- e(@L, X), Y := Z + 1." in
  match Delp.validate (parse_ok src) with
  | Ok _ -> Alcotest.fail "expected Unbound_assign_var"
  | Error (Delp.Unbound_assign_var { var; _ }) -> checks "var" "Z" var
  | Error e -> Alcotest.failf "wrong error: %s" (Delp.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Ast variable utilities *)

let test_rule_vars_in_order () =
  match Parser.parse_rule "r1 out(@N, S) :- ev(@L, S, D), s(@L, D, N), X := S + 1, X >= 0." with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok r ->
      check (Alcotest.list Alcotest.string) "first-occurrence order"
        [ "N"; "S"; "L"; "D"; "X" ]
        (Ast.rule_vars_in_order r)

let test_map_rule_vars () =
  match Parser.parse_rule "r1 out(@N, S) :- ev(@L, S, D), s(@L, D, N), X := S + 1, X >= 0." with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok r ->
      let renamed = Ast.map_rule_vars (fun v -> "Q" ^ v) r in
      check (Alcotest.list Alcotest.string) "all occurrences renamed"
        [ "QN"; "QS"; "QL"; "QD"; "QX" ]
        (Ast.rule_vars_in_order renamed);
      (* Constants and relation names untouched. *)
      checks "relation kept" "out" renamed.head.rel;
      check Alcotest.bool "identity is identity" true
        (Ast.map_rule_vars (fun v -> v) r = r)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dpc_ndlog"
    [
      ( "value",
        [
          Alcotest.test_case "canonical distinct" `Quick test_value_canonical_distinct;
          Alcotest.test_case "canonical length-prefixed" `Quick
            test_value_canonical_length_prefixed;
          Alcotest.test_case "accessors" `Quick test_value_accessors;
        ]
        @ qsuite [ prop_value_serialize_roundtrip ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "requires location" `Quick test_tuple_requires_location;
          Alcotest.test_case "canonical sensitivity" `Quick test_tuple_canonical_sensitivity;
          Alcotest.test_case "digest contract with payload interning" `Quick
            test_tuple_digest_contract;
          Alcotest.test_case "serialize round-trip" `Quick test_tuple_serialize_roundtrip;
          Alcotest.test_case "wire size" `Quick test_tuple_wire_size_grows_with_payload;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "idents and vars" `Quick test_lexer_idents_and_vars;
          Alcotest.test_case "strings and comments" `Quick test_lexer_strings_and_comments;
          Alcotest.test_case "error position" `Quick test_lexer_error_position;
          Alcotest.test_case "unterminated string" `Quick test_lexer_unterminated_string;
        ] );
      ( "parser",
        [
          Alcotest.test_case "forwarding program" `Quick test_parse_forwarding;
          Alcotest.test_case "dns program" `Quick test_parse_dns;
          Alcotest.test_case "assignment" `Quick test_parse_assignment;
          Alcotest.test_case "precedence" `Quick test_parse_expression_precedence;
          Alcotest.test_case "missing @" `Quick test_parse_missing_at;
          Alcotest.test_case "event must be an atom" `Quick test_parse_event_must_be_atom;
          Alcotest.test_case "negative literal" `Quick test_parse_negative_literal;
          Alcotest.test_case "error position" `Quick test_parser_error_reports_position;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "round-trip forwarding" `Quick test_pretty_roundtrip_forwarding;
          Alcotest.test_case "round-trip dns" `Quick test_pretty_roundtrip_dns;
          Alcotest.test_case "nested binops" `Quick test_pretty_parenthesizes_nested_binops;
        ] );
      ( "ast",
        [
          Alcotest.test_case "rule_vars_in_order" `Quick test_rule_vars_in_order;
          Alcotest.test_case "map_rule_vars" `Quick test_map_rule_vars;
        ] );
      ( "delp",
        [
          Alcotest.test_case "forwarding classification" `Quick test_delp_forwarding;
          Alcotest.test_case "dns classification" `Quick test_delp_dns;
          Alcotest.test_case "broken chain" `Quick test_delp_rejects_broken_chain;
          Alcotest.test_case "head as condition" `Quick test_delp_rejects_head_as_condition;
          Alcotest.test_case "arity mismatch" `Quick test_delp_rejects_arity_mismatch;
          Alcotest.test_case "unbound head var" `Quick test_delp_rejects_unbound_head_var;
          Alcotest.test_case "duplicate rule names" `Quick test_delp_rejects_duplicate_rule_names;
          Alcotest.test_case "empty program" `Quick test_delp_rejects_empty;
          Alcotest.test_case "assignment binds" `Quick test_delp_assignment_binds_head_var;
          Alcotest.test_case "unbound assignment" `Quick test_delp_rejects_unbound_assign;
        ] );
    ]
