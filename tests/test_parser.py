import hashlib

import pytest

from corhorn import corpus, parser, printer, syntax as S, values as V


ALL_CORPUS = [e.name for e in corpus.CORPUS]


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_roundtrip_corpus(name):
    prog = corpus.load(name)
    again = parser.parse_program(printer.program_text(prog))
    assert again == prog


def test_take_max_shape():
    prog = corpus.load("inc_max")
    assert set(prog.functions) == {"take_max", "inc_max"}
    assert len(prog.fn("take_max").body) == 8
    assert prog.fn("take_max").lft_params == ("a",)
    assert not prog.fn("take_max").is_simple()
    assert prog.fn("inc_max").is_simple()


def test_empty_input():
    prog = parser.parse_program("")
    assert prog.functions == {}
    assert printer.program_text(prog) == ""


def test_undefined_goto_target():
    src = "fn f(x: own int) -> own int { entry: drop x; goto Lmissing; }"
    with pytest.raises(S.ProgramError, match="Lmissing"):
        parser.parse_program(src)


def test_parse_error_has_position():
    with pytest.raises(parser.ParseError) as exc:
        parser.parse_program("fn f( -> own int {}")
    assert exc.value.line == 1
    assert exc.value.col > 1


def test_drop_statement_text():
    stmt = S.StmtInstr(S.Drop("x"), "L2")
    assert printer.stmt_text(stmt) == "drop x; goto L2;"


def test_comments_and_whitespace():
    src = """
    // leading comment
    fn f(x: own int) -> own int { // trailing
      entry: return x; // done
    }
    """
    prog = parser.parse_program(src)
    assert "f" in prog.functions


def test_match_arm_order_normalized():
    a = parser.parse_program(
        "fn f(x: own bool) -> own unit {"
        " entry: match *x { inj1 *b => goto L2, inj0 *a => goto L1 };"
        " L1: return a; L2: return b; }"
    )
    b = parser.parse_program(
        "fn f(x: own bool) -> own unit {"
        " entry: match *x { inj0 *a => goto L1, inj1 *b => goto L2 };"
        " L1: return a; L2: return b; }"
    )
    assert a == b


def test_reserved_words_rejected():
    with pytest.raises(parser.ParseError):
        parser.parse_program("fn drop(x: own int) -> own int { entry: return x; }")
    with pytest.raises(parser.ParseError):
        parser.parse_program("fn f(res: own int) -> own int { entry: return res; }")


def test_negative_literals():
    prog = parser.parse_program(
        "fn f() -> own int { entry: let *y = -7; goto L1; L1: return y; }"
    )
    stmt = prog.fn("f").body["entry"]
    assert stmt.instr.value == -7


def test_type_precedence():
    t = parser.parse_type("mu X. int * own X + unit")
    assert isinstance(t, S.Mu)
    assert isinstance(t.body, S.Sum)
    assert isinstance(t.body.left, S.Prod)
    # pointer binds tighter than product
    t2 = parser.parse_type("own int * own int")
    assert isinstance(t2, S.Prod)


def test_bool_sugar():
    assert parser.parse_type("bool") == S.Sum(S.UNIT, S.UNIT)
    assert printer.type_text(S.Sum(S.UNIT, S.UNIT)) == "bool"


def test_value_literals():
    assert parser.parse_value("box(4)") == V.Box(4)
    assert parser.parse_value("⟨4⟩") == V.Box(4)
    assert parser.parse_value("⟨3, 5⟩") == V.MutPair(3, 5)
    assert parser.parse_value("mut(3, 5)") == V.MutPair(3, 5)
    assert parser.parse_value("inj1 ()") == V.TRUE
    assert parser.parse_value("true") == V.TRUE
    assert parser.parse_value("false") == V.FALSE
    assert parser.parse_value("(1, 2)") == V.Pair(1, 2)
    assert parser.parse_value("box(inj0 (1, box(inj1 ())))") == V.Box(
        V.Inj(0, V.Pair(1, V.Box(V.Inj(1, V.UNIT))))
    )
    assert parser.parse_value_list("box(4), box(-3)") == [V.Box(4), V.Box(-3)]
    assert parser.parse_value_list("") == []


def test_duplicate_label_rejected():
    src = "fn f(x: own int) -> own int { entry: drop x; goto entry; entry: return x; }"
    with pytest.raises(parser.ParseError, match="duplicate label"):
        parser.parse_program(src)


def test_duplicate_function_rejected():
    src = (
        "fn f(x: own int) -> own int { entry: return x; }"
        "fn f(y: own int) -> own int { entry: return y; }"
    )
    with pytest.raises(parser.ParseError, match="duplicate function"):
        parser.parse_program(src)


# SHA-256 over "kind text line col" lines of each corpus file's token list.
TOKENS_SHA256 = {
    "inc_max": "51327b552f6f999c4cf15d9559646563fb64516bcb4a4caf5af399e7142c56b3",
    "inc_max_unsafe": "69b1f602bf3c4918802dd67d10ea9119633023cb55d2e3d1f72463ae67613461",
    "just_rec": "c3380384db5757543bd2de9efdbd2e0a450c30380305fef1bd4e48335c1c97fd",
    "just_rec_unsafe": "d2c7ec1d38adcef376d2e5651498012a06e4db1b488f9bb08ece125730cf690a",
    "linger_dec": "68d931fec7170076090122d8445ef3ca1c440fd14c31fc688a6784ffb42023bf",
    "linger_dec_unsafe": "12027fdabac6c549eaa20af926e63e7cd29bc96917ccf112ded4ae5187718bc9",
    "inc_some": "f10a99b02fd09c921ad1f897283688a2bac1be64e3df459962f1180eedd56f97",
    "inc_some_unsafe": "2c715e71f222d1afc89b46de866f75b6d3514860a4bffc5119735a94a4d03c3c",
    "inc_some_t": "a41cdc10b4950c3dc4a2cedec8c68eb4c8557f755f5b16a8904d60de2f29d3c3",
    "inc_some_t_unsafe": "c2da6ce19c5bf7609da913f1f28845c2f08596bd85f3a502b65d5febda174a23",
}


@pytest.mark.parametrize("name", sorted(TOKENS_SHA256))
def test_corpus_tokens_pinned(name):
    toks = parser.tokenize(corpus.source_path(name).read_text())
    blob = "\n".join(f"{t.kind} {t.text} {t.line} {t.col}" for t in toks)
    assert hashlib.sha256(blob.encode()).hexdigest() == TOKENS_SHA256[name]


@pytest.mark.parametrize(
    "parse, src, message",
    [
        (parser.parse_program, "fn f() -> unit {\n  L0: let *x = ();\n  @ goto L0;\n}\n",
         "3:3: unexpected character '@'"),
        (parser.parse_program, "fn f<'1a>() -> unit {\n}\n", "1:6: bad lifetime name"),
        (parser.parse_program, "'", "1:1: bad lifetime name"),
        (parser.parse_value, "⟩", "1:1: expected a value literal (got '⟩')"),
        (parser.parse_value, "// only a comment", "1:1: expected a value literal (got '')"),
        (parser.parse_program, "fn f() ->", "1:10: expected a type (got '')"),
        (parser.parse_program, "fn f(x: int) ->\n", "2:1: expected a type (got '')"),
        (parser.parse_program, "fn f() -> unit { L: x ! y; }", "1:23: unexpected character '!'"),
        (parser.parse_program, "fn f() / ", "1:8: unexpected character '/'"),
        (parser.parse_program, "½", "1:1: unexpected character '½'"),
    ],
)
def test_parse_error_messages_pinned(parse, src, message):
    with pytest.raises(parser.ParseError) as exc:
        parse(src)
    assert str(exc.value) == message


def test_comment_only_input_parses_empty():
    assert parser.parse_program("// only a comment").functions == {}
    assert parser.tokenize("a // c") == [
        parser.Token("ident", "a", 1, 1), parser.Token("eof", "", 1, 3)
    ]


def _expected_tokens(src):
    """Token (kind, text) pairs by the str predicates that define the
    lexical classes: ints are runs of isdigit, identifiers start with
    isalpha or '_' and continue with isalnum or '_'."""
    out, i = [], 0
    while i < len(src):
        c, j = src[i], i + 1
        if c.isdigit():
            while j < len(src) and src[j].isdigit():
                j += 1
            out.append(("int", src[i:j]))
        elif c.isalpha() or c == "_":
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(("ident", src[i:j]))
        else:
            return out + [("error", c)]
        i = j
    return out


def test_word_classes_follow_str_predicates():
    # every character that can take part in an int or identifier token,
    # alone and after a digit and a letter
    for cp in range(0x110000):
        c = chr(cp)
        if not (c.isalnum() or c == "_"):
            continue
        for src in (c, "1" + c, "a" + c):
            try:
                got = [(t.kind, t.text) for t in parser.tokenize(src)[:-1]]
            except parser.ParseError as e:
                got = [(t.kind, t.text) for t in parser.tokenize(src[:e.col - 1])[:-1]]
                got.append(("error", src[e.col - 1]))
            assert got == _expected_tokens(src), (hex(cp), src)
