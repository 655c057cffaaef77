"""Parser for the .cor surface syntax.

One function per `fn` block, one labeled statement per `L: ...;` group.
Comments run from '//' to end of line.  The same tokenizer also backs the
value-literal syntax used by the CLI (`box(4)`, `inj1 ()`, ...).
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import syntax as S
from . import values as V


class ParseError(S.CorError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# unicode angle brackets are accepted in value literals as aliases for box/mut
ANGLE_OPEN = "⟨"
ANGLE_CLOSE = "⟩"

# Ints are runs of str.isdigit: \d plus the non-decimal digits below.  \w is
# str.isalnum plus '_', so a word must still start with isalpha or '_' ('½').
_DIGIT = (r"\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
          r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
          r"\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
          r"\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a")
_TOKEN_RE = re.compile(
    rf"(?P<nl>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)|'(?P<lft>\w*)|(?P<int>[{_DIGIT}]+)"
    r"|(?P<ident>\w+)|(?P<punct>->|=>|>=|<=|==|!=|[<>(){},:;=*+\-|.⟨⟩])|(?P<bad>.)"
)


# The tallest type a program may write, in nodes on its longest path
# (`int` is 1, `own int` 2), and the tallest unfolding of a mu-type it
# may write: the walks over types and sorts recurse once or more per
# level, and past about 240 levels exceed Python's stack.
MAX_TYPE_HEIGHT = 128


class Token(NamedTuple):
    kind: str  # 'ident' | 'lft' | 'int' | 'punct' | 'eof'
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "comment":
            continue  # runs to the newline; an eof right after it keeps its column
        end = m.end()
        if kind == "nl":
            line, line_start = line + 1, end
        if kind in ("nl", "space"):
            continue
        text = m.group(kind)
        col = m.start() - line_start + 1
        if kind == "lft" and not S.IDENT_RE.match(text):
            raise ParseError("bad lifetime name", line, col)
        if kind == "bad" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        toks.append(Token(kind, text, line, col))
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(f"{msg} (got {tok.text!r})", tok.line, tok.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.error(f"expected {text or kind}")
        return self.next()

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        if self.at(kind, text):
            self.next()
            return True
        return False

    def ident(self, what: str = "identifier") -> str:
        tok = self.expect("ident")
        if tok.text in S.RESERVED_WORDS:
            self.error(f"reserved word used as {what}", tok)
        return tok.text

    # -- types -------------------------------------------------------------

    def bounded(self, t: S.Type, tok: Token) -> S.Type:
        """t, the type that starts at tok, unless it, or its unfolding
        when it is a mu-type, is taller than MAX_TYPE_HEIGHT: unfolding
        can double a height.  Every node the parser builds passes here,
        so each height is cached before its parent's is asked for."""
        mu = isinstance(t, S.Mu)
        if S.height(S.unfold(t) if mu else t) > MAX_TYPE_HEIGHT:
            self.error(f"type taller than {MAX_TYPE_HEIGHT} nodes" + " once unfolded" * mu, tok)
        return t

    def type_(self) -> S.Type:
        tok = self.peek()
        t = self.prod_type()
        while self.accept("punct", "+"):
            t = self.bounded(S.Sum(t, self.prod_type()), tok)
        return t

    def prod_type(self) -> S.Type:
        tok = self.peek()
        t = self.atom_type()
        while self.accept("punct", "*"):
            t = self.bounded(S.Prod(t, self.atom_type()), tok)
        return t

    def atom_type(self) -> S.Type:
        tok = self.peek()
        if self.accept("ident", "int"):
            return S.INT
        if self.accept("ident", "unit"):
            return S.UNIT
        if self.accept("ident", "bool"):
            return S.BOOL
        if self.accept("ident", "own"):
            return self.bounded(S.own(self.atom_type()), tok)
        if self.accept("ident", "mut"):
            self.expect("punct", "<")
            lft = self.expect("lft").text
            self.expect("punct", ">")
            return self.bounded(S.mut(lft, self.atom_type()), tok)
        if self.accept("ident", "immut"):
            self.expect("punct", "<")
            lft = self.expect("lft").text
            self.expect("punct", ">")
            return self.bounded(S.immut(lft, self.atom_type()), tok)
        if self.accept("ident", "mu"):
            var = self.ident("type variable")
            self.expect("punct", ".")
            return self.bounded(S.Mu(var, self.type_()), tok)
        if self.accept("punct", "("):
            t = self.type_()
            self.expect("punct", ")")
            return t
        if tok.kind == "ident":
            return S.TypeVar(self.ident("type variable"))
        self.error("expected a type")

    # -- programs ----------------------------------------------------------

    def program(self) -> S.Program:
        fns: dict[str, S.FunctionDef] = {}
        while not self.at("eof"):
            fn = self.fndef()
            if fn.name in fns:
                self.error(f"duplicate function {fn.name!r}")
            fns[fn.name] = fn
        return S.Program(fns)

    def fndef(self) -> S.FunctionDef:
        self.expect("ident", "fn")
        name = self.ident("function name")
        lfts: list[str] = []
        constraints: list[tuple[str, str]] = []
        if self.accept("punct", "<"):
            while not self.at("punct", ">") and not self.at("punct", "|"):
                lfts.append(self.expect("lft").text)
                if not self.accept("punct", ","):
                    break
            if self.accept("punct", "|"):
                while True:
                    lo = self.expect("lft").text
                    self.expect("punct", "<=")
                    hi = self.expect("lft").text
                    constraints.append((lo, hi))
                    if not self.accept("punct", ","):
                        break
            self.expect("punct", ">")
        self.expect("punct", "(")
        params: list[tuple[str, S.Type]] = []
        while not self.at("punct", ")"):
            x = self.ident("parameter")
            self.expect("punct", ":")
            params.append((x, self.type_()))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        self.expect("punct", "->")
        ret = self.type_()
        self.expect("punct", "{")
        body: dict[str, S.Statement] = {}
        while not self.at("punct", "}"):
            label = self.ident("label")
            self.expect("punct", ":")
            if label in body:
                self.error(f"duplicate label {label!r}")
            body[label] = self.statement()
        self.expect("punct", "}")
        return S.FunctionDef(
            name=name,
            lft_params=tuple(lfts),
            lft_constraints=tuple(constraints),
            params=tuple(params),
            ret=ret,
            body=body,
        )

    def statement(self) -> S.Statement:
        if self.accept("ident", "return"):
            x = self.ident("variable")
            self.expect("punct", ";")
            return S.StmtReturn(x)
        if self.accept("ident", "match"):
            self.expect("punct", "*")
            x = self.ident("variable")
            self.expect("punct", "{")
            arms: dict[int, tuple[str, str]] = {}
            for _ in range(2):
                tok = self.expect("ident")
                if tok.text not in ("inj0", "inj1"):
                    self.error("expected inj0 or inj1", tok)
                idx = int(tok.text[-1])
                if idx in arms:
                    self.error(f"duplicate arm inj{idx}", tok)
                self.expect("punct", "*")
                binder = self.ident("variable")
                self.expect("punct", "=>")
                self.expect("ident", "goto")
                target = self.ident("label")
                arms[idx] = (binder, target)
                if len(arms) == 1:
                    self.expect("punct", ",")
            self.expect("punct", "}")
            self.expect("punct", ";")
            return S.StmtMatch(x, arms[0][0], arms[0][1], arms[1][0], arms[1][1])
        instr = self.instruction()
        self.expect("punct", ";")
        self.expect("ident", "goto")
        target = self.ident("label")
        self.expect("punct", ";")
        return S.StmtInstr(instr, target)

    def instruction(self) -> S.Instruction:
        if self.accept("ident", "drop"):
            return S.Drop(self.ident("variable"))
        if self.accept("ident", "immut"):
            return S.Immut(self.ident("variable"))
        if self.accept("ident", "swap"):
            self.expect("punct", "(")
            self.expect("punct", "*")
            x = self.ident("variable")
            self.expect("punct", ",")
            self.expect("punct", "*")
            y = self.ident("variable")
            self.expect("punct", ")")
            return S.Swap(x, y)
        if self.accept("ident", "intro"):
            return S.IntroLft(self.expect("lft").text)
        if self.accept("ident", "now"):
            return S.NowLft(self.expect("lft").text)
        if self.peek().kind == "lft":
            lo = self.next().text
            self.expect("punct", "<=")
            hi = self.expect("lft").text
            return S.LftLeq(lo, hi)
        if self.accept("ident", "let"):
            return self.let_instruction()
        # remaining form: x as T
        x = self.ident("variable")
        self.expect("ident", "as")
        return S.TypeWeaken(x, self.type_())

    def let_instruction(self) -> S.Instruction:
        if self.accept("punct", "("):
            self.expect("punct", "*")
            y0 = self.ident("variable")
            self.expect("punct", ",")
            self.expect("punct", "*")
            y1 = self.ident("variable")
            self.expect("punct", ")")
            self.expect("punct", "=")
            self.expect("punct", "*")
            x = self.ident("variable")
            return S.DestructPair(y0, y1, x)
        if self.accept("punct", "*"):
            y = self.ident("variable")
            self.expect("punct", "=")
            return self.starred_rhs(y)
        y = self.ident("variable")
        self.expect("punct", "=")
        return self.plain_rhs(y)

    def starred_rhs(self, y: str) -> S.Instruction:
        # let *y = ...
        tok = self.peek()
        if tok.kind == "int" or self.at("punct", "-"):
            return S.ConstInstr(y, self.int_literal())
        if self.accept("punct", "("):
            if self.accept("punct", ")"):
                return S.ConstInstr(y, S.UNIT_CONST)
            self.expect("punct", "*")
            x0 = self.ident("variable")
            self.expect("punct", ",")
            self.expect("punct", "*")
            x1 = self.ident("variable")
            self.expect("punct", ")")
            return S.MakePair(y, x0, x1)
        if self.accept("ident", "copy"):
            self.expect("punct", "*")
            return S.CopyDeref(y, self.ident("variable"))
        if self.accept("ident", "rand"):
            self.expect("punct", "(")
            self.expect("punct", ")")
            return S.RandInstr(y)
        if tok.kind == "ident" and tok.text in ("inj0", "inj1"):
            self.next()
            idx = int(tok.text[-1])
            self.expect("punct", "<")
            ty = self.type_()
            self.expect("punct", ">")
            if not isinstance(ty, S.Sum):
                self.error("inj annotation must be a sum type", tok)
            self.expect("punct", "*")
            x = self.ident("variable")
            return S.InjInstr(y, idx, ty, x)
        if self.accept("punct", "*"):
            x = self.ident("variable")
            op_tok = self.next()
            if op_tok.text not in S.INT_OPS + S.BOOL_OPS:
                self.error("expected a binary operator", op_tok)
            self.expect("punct", "*")
            x2 = self.ident("variable")
            return S.BinOpInstr(y, x, op_tok.text, x2)
        if tok.kind == "ident":
            return S.MakePtr(y, self.ident("variable"))
        self.error("bad right-hand side for let *y = ...")

    def plain_rhs(self, y: str) -> S.Instruction:
        # let y = ...
        if self.accept("ident", "mutbor"):
            lft = self.expect("lft").text
            return S.MutBor(y, lft, self.ident("variable"))
        if self.accept("punct", "*"):
            return S.Deref(y, self.ident("variable"))
        g = self.ident("function name")
        lfts: list[str] = []
        if self.accept("punct", "<"):
            while not self.at("punct", ">"):
                lfts.append(self.expect("lft").text)
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ">")
        self.expect("punct", "(")
        args: list[str] = []
        while not self.at("punct", ")"):
            args.append(self.ident("variable"))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return S.Call(y, g, tuple(lfts), tuple(args))

    def int_literal(self) -> int:
        neg = self.accept("punct", "-")
        tok = self.expect("int")
        try:
            n = int(tok.text)
        except ValueError:  # int tokens are runs of str.isdigit, which admits '²'
            self.error("bad integer literal", tok)
        return -n if neg else n

    # -- value literals ------------------------------------------------------

    def value(self) -> V.Value:
        tok = self.peek()
        if tok.kind == "int" or self.at("punct", "-"):
            return self.int_literal()
        if self.accept("ident", "true"):
            return V.TRUE
        if self.accept("ident", "false"):
            return V.FALSE
        if self.accept("ident", "box"):
            self.expect("punct", "(")
            v = self.value()
            self.expect("punct", ")")
            return V.Box(v)
        if self.accept("ident", "mut"):
            self.expect("punct", "(")
            cur = self.value()
            self.expect("punct", ",")
            fin = self.value()
            self.expect("punct", ")")
            return V.MutPair(cur, fin)
        if tok.kind == "ident" and tok.text in ("inj0", "inj1"):
            self.next()
            return V.Inj(int(tok.text[-1]), self.value())
        if self.accept("punct", ANGLE_OPEN):
            first = self.value()
            if self.accept("punct", ","):
                second = self.value()
                self.expect("punct", ANGLE_CLOSE)
                return V.MutPair(first, second)
            self.expect("punct", ANGLE_CLOSE)
            return V.Box(first)
        if self.accept("punct", "("):
            if self.accept("punct", ")"):
                return V.UNIT
            fst = self.value()
            self.expect("punct", ",")
            snd = self.value()
            self.expect("punct", ")")
            return V.Pair(fst, snd)
        self.error("expected a value literal")


def parse_program(src: str) -> S.Program:
    p = _Parser(src)
    return p.program()


def parse_value(src: str) -> V.Value:
    p = _Parser(src)
    v = p.value()
    p.expect("eof")
    return v


def parse_value_list(src: str) -> list[V.Value]:
    """Comma-separated value literals, as used for --args."""
    src = src.strip()
    if not src:
        return []
    p = _Parser(src)
    out = [p.value()]
    while p.accept("punct", ","):
        out.append(p.value())
    p.expect("eof")
    return out
