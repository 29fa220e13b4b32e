#include "compute/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/maj3.hh"
#include "core/multi_row.hh"
#include "core/rowclone.hh"

namespace fracdram::compute
{

BitwiseEngine::BitwiseEngine(softmc::MemoryController &mc,
                             BankAddr bank)
    : mc_(mc), bank_(bank)
{
    const auto &profile = mc.chip().profile();
    useThreeRow_ = profile.supportsThreeRow;
    fatal_if(!useThreeRow_ &&
                 !(profile.supportsFourRow && profile.supportsFrac),
             "group %s supports no in-memory majority",
             sim::groupName(profile.group).c_str());

    if (useThreeRow_) {
        // ComputeDRAM's rows: ACT(1)-PRE-ACT(2) opens {0,1,2}.
        computeRows_ = {0, 1, 2};
    } else {
        fmajConfig_ = core::bestFMajConfig(profile.group);
        computeRows_ = core::fmajOperandRows(mc.chip(), fmajConfig_);
    }

    // Home rows live above the decoder's glitch window so staging
    // copies never open extra rows. Reserve two constant rows first.
    const RowAddr rows = mc.chip().dramParams().rowsPerBank();
    fatal_if(rows < 24, "bank too small for the compute engine");
    constZeroRow_ = 16;
    constOneRow_ = 17;
    mc_.fillRowVoltage(bank_, constZeroRow_, false);
    mc_.fillRowVoltage(bank_, constOneRow_, true);
    for (RowAddr r = 18; r < rows; ++r)
        freeRows_.push_back(r);
    // Allocate low rows first.
    std::reverse(freeRows_.begin(), freeRows_.end());
}

std::size_t
BitwiseEngine::lanes() const
{
    return mc_.chip().dramParams().colsPerRow;
}

RowAddr
BitwiseEngine::allocRow()
{
    fatal_if(freeRows_.empty(), "out of home rows");
    const RowAddr r = freeRows_.back();
    freeRows_.pop_back();
    return r;
}

Value
BitwiseEngine::alloc()
{
    Value v;
    v.pos = allocRow();
    v.neg = allocRow();
    return v;
}

void
BitwiseEngine::release(const Value &v)
{
    freeRows_.push_back(v.pos);
    freeRows_.push_back(v.neg);
}

void
BitwiseEngine::write(const Value &v, const BitVector &bits)
{
    BitVector inverted(bits.size(), true);
    inverted = inverted ^ bits;
    mc_.writeRowVoltage(bank_, v.pos, bits);
    mc_.writeRowVoltage(bank_, v.neg, inverted);
}

BitVector
BitwiseEngine::read(const Value &v)
{
    return mc_.readRowVoltage(bank_, v.pos);
}

void
BitwiseEngine::majIntoRow(RowAddr a, RowAddr b, RowAddr c, RowAddr out)
{
    ++majOps_;
    if (useThreeRow_) {
        core::rowCopy(mc_, bank_, a, computeRows_[0]);
        core::rowCopy(mc_, bank_, b, computeRows_[1]);
        core::rowCopy(mc_, bank_, c, computeRows_[2]);
        core::maj3InPlace(mc_, bank_, 1, 2);
        core::rowCopy(mc_, bank_, computeRows_[0], out);
        return;
    }
    core::fmajPrepareFracRow(mc_, bank_, fmajConfig_);
    core::rowCopy(mc_, bank_, a, computeRows_[0]);
    core::rowCopy(mc_, bank_, b, computeRows_[1]);
    core::rowCopy(mc_, bank_, c, computeRows_[2]);
    core::multiRowActivate(mc_, bank_, fmajConfig_.actFirst,
                           fmajConfig_.actSecond);
    core::rowCopy(mc_, bank_, computeRows_[0], out);
}

Value
BitwiseEngine::opMaj(const Value &a, const Value &b, const Value &c)
{
    Value out = alloc();
    // Majority is self-dual: MAJ(~a,~b,~c) = ~MAJ(a,b,c).
    majIntoRow(a.pos, b.pos, c.pos, out.pos);
    majIntoRow(a.neg, b.neg, c.neg, out.neg);
    return out;
}

Value
BitwiseEngine::opAnd(const Value &a, const Value &b)
{
    Value out = alloc();
    majIntoRow(a.pos, b.pos, constZeroRow_, out.pos);
    // De Morgan: ~(a & b) = ~a | ~b = MAJ(~a, ~b, 1).
    majIntoRow(a.neg, b.neg, constOneRow_, out.neg);
    return out;
}

Value
BitwiseEngine::opOr(const Value &a, const Value &b)
{
    Value out = alloc();
    majIntoRow(a.pos, b.pos, constOneRow_, out.pos);
    majIntoRow(a.neg, b.neg, constZeroRow_, out.neg);
    return out;
}

Value
BitwiseEngine::opNot(const Value &a) const
{
    return Value{a.neg, a.pos};
}

Value
BitwiseEngine::opXor(const Value &a, const Value &b)
{
    // a ^ b = (a & ~b) | (~a & b); the complement rail is the XNOR.
    const Value t1 = opAnd(a, opNot(b));
    const Value t2 = opAnd(opNot(a), b);
    const Value t3 = opAnd(a, b);
    const Value t4 = opAnd(opNot(a), opNot(b));
    Value out = alloc();
    majIntoRow(t1.pos, t2.pos, constOneRow_, out.pos);
    majIntoRow(t3.pos, t4.pos, constOneRow_, out.neg);
    release(t1);
    release(t2);
    release(t3);
    release(t4);
    return out;
}

Value
BitwiseEngine::opXnor(const Value &a, const Value &b)
{
    return opNot(opXor(a, b));
}

Value
BitwiseEngine::opCopy(const Value &a)
{
    Value out = alloc();
    // Stage through a compute row so home-to-home pairs can never
    // trip the decoder glitch.
    core::rowCopy(mc_, bank_, a.pos, computeRows_[0]);
    core::rowCopy(mc_, bank_, computeRows_[0], out.pos);
    core::rowCopy(mc_, bank_, a.neg, computeRows_[0]);
    core::rowCopy(mc_, bank_, computeRows_[0], out.neg);
    return out;
}

Cycles
BitwiseEngine::cyclesUsed() const
{
    return mc_.sequenceCycles();
}

} // namespace fracdram::compute
