"""Recursive-descent parser for prose storyboards.

Surface grammar (canonical spellings; keywords are case-insensitive):

    storyboard  = shot , { ("Cut to" | "Dissolve to") , shot } ;
    shot        = composition , { "," , event } , "." ;
    composition = flat , { "," , flat } ;            (* foreground first *)
    flat        = size , "on" , subject , { "and" , subject } ;
    subject     = NAME , [ profile ] , [ screen ] ;
    size        = "BCU" | "CU" | "MCU" | "MS" | "MLS" | "LS" | "VLS"
                | long forms ("medium long shot", "big close-up", ...) ;
    profile     = "front" | "back" | "left" | "right" | "3/4 left"
                | "3/4 right" | "3/4 back left" | "3/4 back right" ;
    screen      = "screen" , ("far left"|"left"|"center"|"right"|"far right")
                | "at" , FRACTION ;
    event       = "lock"
                | ("pan"|"dolly"|"crane") , ("with" , subject | "to" , composition)
                | "continue to" , composition
                | actor-event ;
    actor-event = NAME , ( "speaks" | "reacts" , [ "to" , NAME ]
                | "uses" , NAME | "touches" , NAME | "crosses" , NAME
                | "enters from" , ("left"|"right") , "to" , composition
                | "exits" , ("left"|"right")
                | "moves to" , composition ) ;

A comma either continues the composition (when a size keyword follows) or
starts an event, so one token of lookahead suffices.  Errors recover by
skipping to the next period, which keeps one bad shot to one diagnostic.
On any error the parse yields no tree, only diagnostics.
"""
from __future__ import annotations

from fractions import Fraction

from . import ast
from .ast import (
    CAMERA_TO,
    CAMERA_WITH,
    Composition,
    ContinueTo,
    Cross,
    Enter,
    Exit,
    FlatComposition,
    Lock,
    Move,
    Profile,
    React,
    ScreenAnchor,
    ScreenFraction,
    ShotTransition,
    Side,
    Speak,
    Storyboard,
    SubjectSpec,
    Touch,
    Use,
)
from .diagnostics import (
    Diagnostic,
    E_EMPTY,
    E_NUMBER_RANGE,
    E_SYNTAX,
    Span,
    error,
    has_errors,
)
from .lexer import Token, TokenKind, tokenize

_PROFILE_BY_KIND = {
    kind: Profile(kind.value)
    for kind in (TokenKind.FRONT, TokenKind.BACK, TokenKind.LEFT, TokenKind.RIGHT)
}
_SIDE_BY_KIND = {kind: Side(kind.value) for kind in (TokenKind.LEFT, TokenKind.RIGHT)}


class _Failure(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, tokens: list[Token], source_bytes: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.end = source_bytes

    # --- cursor helpers --------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, kind: TokenKind) -> bool:
        t = self.peek()
        return t is not None and t.kind is kind

    def take(self, kind: TokenKind) -> Token | None:
        if self.at(kind):
            t = self.tokens[self.pos]
            self.pos += 1
            return t
        return None

    def expect(self, kind: TokenKind, what: str) -> Token:
        t = self.take(kind)
        if t is None:
            raise _Failure(self.fail(what))
        return t

    def fail(self, what: str) -> Diagnostic:
        t = self.peek()
        if t is None:
            span = Span(max(0, self.end - 1), self.end) if self.end else Span(0, 0)
            return error(E_SYNTAX, span, f"expected {what}, found end of input")
        return error(E_SYNTAX, t.span, f"expected {what}, found {t.lexeme!r}")

    def skip_past_period(self) -> None:
        while self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            self.pos += 1
            if t.kind is TokenKind.PERIOD:
                return

    # --- grammar ----------------------------------------------------

    def storyboard(self, diagnostics: list[Diagnostic]) -> Storyboard | None:
        shots: list[ast.Shot] = []
        joins: list[ShotTransition] = []
        first = self.shot(diagnostics)
        if first is not None:
            shots.append(first)
        while self.peek() is not None:
            if self.take(TokenKind.CUT_TO):
                joins.append(ShotTransition.CUT)
            elif self.take(TokenKind.DISSOLVE_TO):
                joins.append(ShotTransition.DISSOLVE)
            else:
                diagnostics.append(self.fail("'Cut to', 'Dissolve to', or end of storyboard"))
                self.skip_past_period()
                continue
            nxt = self.shot(diagnostics)
            if nxt is not None:
                shots.append(nxt)
        if has_errors(diagnostics) or not shots:
            return None
        return Storyboard(tuple(shots), tuple(joins))

    def shot(self, diagnostics: list[Diagnostic]) -> ast.Shot | None:
        start = self.peek()
        try:
            comp = self.composition()
            events: list[ast.ScreenEvent] = []
            while self.take(TokenKind.COMMA):
                events.append(self.event())
            period = self.expect(TokenKind.PERIOD, "',' or '.'")
            span = Span(start.start, period.end) if start else None
            return ast.Shot(comp, tuple(events), span=span)
        except _Failure as failure:
            diagnostics.append(failure.diagnostic)
            self.skip_past_period()
            return None

    def composition(self) -> Composition:
        flats = [self.flat()]
        while True:
            nxt = self.peek(1)
            if self.at(TokenKind.COMMA) and nxt is not None and nxt.kind is TokenKind.SIZE:
                self.take(TokenKind.COMMA)
                flats.append(self.flat())
            else:
                break
        return Composition(tuple(flats))

    def flat(self) -> FlatComposition:
        size_tok = self.expect(TokenKind.SIZE, "a shot size (MS, CU, ...)")
        self.expect(TokenKind.ON, "'on'")
        subjects = [self.subject()]
        while self.take(TokenKind.AND):
            subjects.append(self.subject())
        last = self.tokens[self.pos - 1]
        return FlatComposition(
            size_tok.value, tuple(subjects), span=Span(size_tok.start, last.end)
        )

    def subject(self) -> SubjectSpec:
        name = self.expect(TokenKind.IDENT, "a subject name")
        return SubjectSpec(name.value, self.maybe_profile(), self.maybe_screen())

    def maybe_profile(self) -> Profile | None:
        t = self.peek()
        if t is None:
            return None
        if t.kind in _PROFILE_BY_KIND:
            self.pos += 1
            return _PROFILE_BY_KIND[t.kind]
        nxt = self.peek(1)
        if (
            t.kind is TokenKind.FRACTION
            and t.value == Fraction(3, 4)
            and nxt is not None
            and nxt.kind in (TokenKind.LEFT, TokenKind.RIGHT, TokenKind.BACK)
        ):
            self.pos += 1
            if self.take(TokenKind.BACK):
                if self.take(TokenKind.LEFT):
                    return Profile.THREE_QUARTER_BACK_LEFT
                self.expect(TokenKind.RIGHT, "'left' or 'right' after '3/4 back'")
                return Profile.THREE_QUARTER_BACK_RIGHT
            if self.take(TokenKind.LEFT):
                return Profile.THREE_QUARTER_LEFT
            self.expect(TokenKind.RIGHT, "'left', 'right', or 'back' after '3/4'")
            return Profile.THREE_QUARTER_RIGHT
        return None

    def maybe_screen(self) -> ast.ScreenPosition | None:
        if self.take(TokenKind.SCREEN):
            if self.take(TokenKind.FAR):
                if self.take(TokenKind.LEFT):
                    return ScreenAnchor.FAR_LEFT
                self.expect(TokenKind.RIGHT, "'left' or 'right' after 'screen far'")
                return ScreenAnchor.FAR_RIGHT
            if self.take(TokenKind.LEFT):
                return ScreenAnchor.LEFT
            if self.take(TokenKind.CENTER):
                return ScreenAnchor.CENTER
            self.expect(TokenKind.RIGHT, "a screen position after 'screen'")
            return ScreenAnchor.RIGHT
        if self.take(TokenKind.AT):
            t = self.expect(TokenKind.FRACTION, "a fraction after 'at'")
            if not (0 < t.value < 1):
                raise _Failure(
                    error(E_NUMBER_RANGE, t.span, f"screen position {t.lexeme} is not inside (0, 1)")
                )
            return ScreenFraction(t.value)
        return None

    def event(self) -> ast.ScreenEvent:
        t = self.peek()
        if t is None:
            raise _Failure(self.fail("an event"))
        if t.kind is TokenKind.LOCK:
            self.pos += 1
            return Lock(span=t.span)
        if t.kind in (TokenKind.PAN, TokenKind.DOLLY, TokenKind.CRANE):
            self.pos += 1
            verb = t.kind.value
            if self.take(TokenKind.WITH):
                return CAMERA_WITH[verb](self.subject(), span=self._span_from(t))
            self.expect(TokenKind.TO, "'with' or 'to'")
            return CAMERA_TO[verb](self.composition(), span=self._span_from(t))
        if t.kind is TokenKind.CONTINUE_TO:
            self.pos += 1
            target = self.composition()
            return ContinueTo(target, span=self._span_from(t))
        if t.kind is TokenKind.IDENT:
            return self.actor_event()
        raise _Failure(self.fail("an event (lock, pan, dolly, crane, continue to, or a subject name)"))

    def actor_event(self) -> ast.ScreenEvent:
        actor = self.expect(TokenKind.IDENT, "a subject name")
        if self.take(TokenKind.SPEAKS):
            return Speak(actor.value, span=self._span_from(actor))
        if self.take(TokenKind.REACTS):
            target = None
            if self.take(TokenKind.TO):
                target = self.expect(TokenKind.IDENT, "a subject name after 'reacts to'").value
            return React(actor.value, target, span=self._span_from(actor))
        if self.take(TokenKind.USES):
            prop = self.expect(TokenKind.IDENT, "a subject name after 'uses'")
            return Use(actor.value, prop.value, span=self._span_from(actor))
        if self.take(TokenKind.TOUCHES):
            prop = self.expect(TokenKind.IDENT, "a subject name after 'touches'")
            return Touch(actor.value, prop.value, span=self._span_from(actor))
        if self.take(TokenKind.CROSSES):
            other = self.expect(TokenKind.IDENT, "a subject name after 'crosses'")
            return Cross(actor.value, other.value, span=self._span_from(actor))
        if self.take(TokenKind.ENTERS):
            self.expect(TokenKind.FROM, "'from' after 'enters'")
            side = self._side()
            self.expect(TokenKind.TO, "'to' after the entrance side")
            target = self.composition()
            return Enter(actor.value, side, target, span=self._span_from(actor))
        if self.take(TokenKind.EXITS):
            side = self._side()
            return Exit(actor.value, side, span=self._span_from(actor))
        if self.take(TokenKind.MOVES):
            self.expect(TokenKind.TO, "'to' after 'moves'")
            target = self.composition()
            return Move(actor.value, target, span=self._span_from(actor))
        raise _Failure(self.fail("an action verb (speaks, reacts, uses, touches, crosses, enters, exits, moves)"))

    def _side(self) -> Side:
        t = self.peek()
        if t is not None and t.kind in _SIDE_BY_KIND:
            self.pos += 1
            return _SIDE_BY_KIND[t.kind]
        raise _Failure(self.fail("'left' or 'right'"))

    def _span_from(self, first: Token) -> Span:
        last = self.tokens[self.pos - 1]
        return Span(first.start, last.end)


def parse_storyboard(source: str) -> tuple[Storyboard | None, list[Diagnostic]]:
    """Parse a whole storyboard; returns (tree or None, diagnostics)."""
    tokens, diagnostics = tokenize(source)
    nbytes = len(source.encode("utf-8"))
    if not tokens:
        diagnostics.append(error(E_EMPTY, Span(0, nbytes), "the storyboard is empty"))
        return None, _sorted(diagnostics)
    parser = _Parser(tokens, nbytes)
    return parser.storyboard(diagnostics), _sorted(diagnostics)


def _sorted(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=lambda d: (d.span.start, d.span.end, d.code))
